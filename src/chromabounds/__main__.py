import sys

from .cli import process_main

sys.exit(process_main())
