"""``python -m nanoread``: the command line tool, runnable from a checkout."""

from .cli import main

raise SystemExit(main())
