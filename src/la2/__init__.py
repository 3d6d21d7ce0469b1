"""Neural operator with KNN locality patches and fused global/local attention.

Subpackages: ``tensor`` (float64 autodiff engine), ``geometry`` (exact KNN),
``attention`` (dual-branch blocks), ``model`` (operator composition and
checkpoints), ``data`` (synthetic PDE datasets and the LA2T format),
``training`` (optimizer, loop and evaluation), ``bench``, and ``cli``.
"""

from .tensor import GradTape, Tensor, TensorError, backward

__all__ = ["GradTape", "Tensor", "TensorError", "backward"]

__version__ = "0.1.0"
