"""Capacity allocation analysis for neural-network layers.

The package answers one question at several levels of the stack: given a
trained readout with a limited parameter budget, where in the input space
do those parameters end up constraining the model?

- :mod:`capnet.core`: capacity bases, subspace capacities, spatial profiles.
- :mod:`capnet.augment`: the augmented input space that linearizes one
  non-linear layer, and the decoupling coefficient of an activation.
- :mod:`capnet.propagate`: column-stochastic backward propagation of
  capacity through a chain of layers.
- :mod:`capnet.deeplimit`: the drift-diffusion limit of deep residual
  chains and its Gaussian closed form.
- :mod:`capnet.analyze`: effective receptive fields and path-weight
  shattering.
- :mod:`capnet.oracle`: seeded Monte Carlo measurements that validate the
  closed forms.
- :mod:`capnet.cli`: the ``capnet`` command.
"""

from capnet import analyze, augment, core, deeplimit, oracle, propagate
from capnet.analyze import *
from capnet.augment import *
from capnet.core import *
from capnet.deeplimit import *
from capnet.oracle import *
from capnet.propagate import *

__version__ = "0.1.0"

__all__ = sorted(
    {
        name
        for module in (analyze, augment, core, deeplimit, oracle, propagate)
        for name in module.__all__
    }
)
