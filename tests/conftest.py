def pytest_report_header(config):
    """Versions, SIMD dispatch and long-double precision behind the float.hex pins.

    numpy's exp and pow round differently in their X86_V4 (AVX-512) and
    X86_V3 (AVX2) kernels, and the BBL pins rest on ``mean_p``'s 80-bit long
    doubles (precision 18; a platform whose long double is a double reports
    15), so a pinned bit that fails on one runner shows its likely cause
    here.  The dispatch shown is the highest of those levels numpy runs,
    which ``NPY_DISABLE_CPU_FEATURES`` can lower while the hardware's
    feature bits stay on; "baseline" means neither.
    """
    import numpy as np
    import scipy
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    levels = [t for t in __cpu_dispatch__ if t.startswith("X86_V") and __cpu_features__.get(t)]
    dispatch = levels[-1] if levels else "baseline"
    longdouble = np.finfo(np.longdouble).precision
    return f"numpy {np.__version__}, scipy {scipy.__version__}, dispatch {dispatch}, longdouble precision {longdouble}"
