"""The spectral stepper calls numpy's pocketfft gufuncs directly, past the
`np.fft` wrappers.  They are a private numpy module, so this test pins what
the stepper needs of them, without importing shlattice: a numpy release that
moves them fails here with a message rather than at import."""

import importlib

FLOOR = ("SpectralStepper calls these kernels directly; the numpy>=2.0 floor in "
         "pyproject.toml assumes them. Raise the floor to a numpy that has them, "
         "or route SpectralStepper.nonlinear back through np.fft.")


def test_pocketfft_gufuncs_have_the_signatures_the_stepper_calls():
    try:
        kernels = importlib.import_module("numpy.fft._pocketfft_umath")
    except ImportError as exc:
        raise AssertionError(f"numpy.fft._pocketfft_umath is gone ({exc}). {FLOOR}") from None
    expected = {"irfft": "(m),()->(n)", "rfft_n_even": "(n),()->(m)",
                "rfft_n_odd": "(n),()->(m)"}
    found = {name: getattr(getattr(kernels, name, None), "signature", None)
             for name in expected}
    assert found == expected, f"pocketfft gufuncs changed: {found}. {FLOOR}"
