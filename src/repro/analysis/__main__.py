"""``python -m repro.analysis``: print the paper's figures (see :mod:`repro.analysis.figures`)."""

from repro.analysis.figures import main

if __name__ == "__main__":
    raise SystemExit(main())
