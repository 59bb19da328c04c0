"""`python -m cantorshift`: the command line of cantorshift.cli."""

from .cli import main

if __name__ == "__main__":
    main()
