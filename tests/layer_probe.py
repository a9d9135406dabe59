"""Per-layer gradient checks: ``grad_check`` on a one-step network under a linear probe loss."""
import numpy as np

from maxmin_cnn.models import Network
from maxmin_cnn.train import grad_check


class ProbeLoss:
    """The loss sum(out * R) for a fixed R, so d loss / d out is R."""

    def __init__(self, probe):
        self.probe = probe

    def forward(self, out, labels):
        return float((out * self.probe).sum()), None

    def backward(self):
        return self.probe


def probe_grad_check(layers, x, seed=0, **kwargs):
    """``grad_check`` of ``Network(None, layers, seed)`` with a standard-normal probe R.

    ``layers`` is one layer, or a [MaxMin,] ReLU, MaxPool run that the
    network fuses into one pool step, as the presets run it. ``kwargs``
    go to ``grad_check`` (tolerance, step, samples_per_layer).
    """
    net = Network(None, list(layers), seed)
    out = net.forward(np.ascontiguousarray(x), train=False)
    net.loss_layer = ProbeLoss(np.random.default_rng(seed).standard_normal(out.shape))
    return grad_check(net, x, None, seed=seed, **kwargs)
