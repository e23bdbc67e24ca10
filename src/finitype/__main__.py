"""``python -m finitype``: the command-line front end, as the ``finitype`` script."""

from .cli import main

if __name__ == "__main__":
    main()
