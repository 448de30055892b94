import atexit
import gc
import sys

from .cli import main

# The process is about to exit: at exit, move every object it holds into the
# permanent generation, so that the collections CPython runs while it
# finalizes do not walk them.  Error exits (argparse's SystemExit, codes 2
# to 4) take the same path.
atexit.register(gc.freeze)
sys.exit(main())
