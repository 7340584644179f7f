def pytest_report_header(config):
    """Versions, SIMD paths and long-double precision behind the float.hex pins.

    numpy's exp and pow round differently on AVX-512 and on narrower paths,
    and the BBL pins rest on ``mean_p``'s 80-bit long doubles (precision 18;
    a platform whose long double is a double reports 15), so a pinned bit
    that fails on one runner shows its likely cause here.
    """
    import numpy as np
    import scipy
    from numpy._core._multiarray_umath import __cpu_features__

    avx512 = "on" if __cpu_features__.get("AVX512F") else "off"
    longdouble = np.finfo(np.longdouble).precision
    return f"numpy {np.__version__}, scipy {scipy.__version__}, AVX512F {avx512}, longdouble precision {longdouble}"
