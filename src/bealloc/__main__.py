"""`python -m bealloc`: the command-line front end (see bealloc.cli)."""

from .cli import entry

if __name__ == "__main__":
    entry()
