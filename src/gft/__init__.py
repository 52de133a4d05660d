"""gft: special functions, conformal moduli, quasiconformal distortion,
explicit growth/Holder bounds, and a numerical inequality-verification
engine with a matching command-line interface.

Each module declares its public names once, in its own __all__.
"""
__version__ = "0.1.0"  # before the imports: verify reports carry it

from .special import *
from .modulus import *
from .distortion import *
from .bounds import *
from .verify import *

# importing a submodule binds it here, so each module's list is in reach
__all__ = [*special.__all__, *modulus.__all__, *distortion.__all__, *bounds.__all__,
           *verify.__all__]
