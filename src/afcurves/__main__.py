import sys

from .shell import main

sys.exit(main())
