"""Route free-form customer complaints to terminal DTMF paths of an IVR menu.

The library API lives in the submodules: menu, datagen, synthesis, prompts,
provider, router and evaluation; cli is the command-line front end.
"""

__version__ = "0.1.0"
