"""`python -m evrecon`: the same command line as the `evrecon` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
