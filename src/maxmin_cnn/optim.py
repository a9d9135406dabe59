"""SGD with momentum and weight decay, plus plateau learning-rate decay."""
import numpy as np

from .errors import DivergenceError, ShapeError


class SGD:
    """Heavy-ball update: v <- m*v - lr*(g + wd*p); p <- p + v.

    Velocities are lazily allocated per parameter and updated in place;
    the caller guarantees exclusive access during a step.
    """

    def __init__(self, momentum=0.9, weight_decay=0.0):
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = {}

    def step(self, net, learning_rate):
        for i, name, p, g in net.params():
            key = (i, name)
            if g.shape != p.shape:
                raise ShapeError(f"layer {i} {name}: grad shape {g.shape} != param {p.shape}")
            if not np.all(np.isfinite(g)):
                raise DivergenceError(f"non-finite gradient in layer {i} parameter {name!r}")
            v = self._velocity.get(key)
            if v is None:
                v = self._velocity[key] = np.zeros_like(p)
            v *= self.momentum
            v -= learning_rate * (g + self.weight_decay * p)
            p += v


class PlateauScheduler:
    """Cut the learning rate when best validation accuracy stalls.

    A reduction fires once the best-so-far accuracy has gone
    ``patience`` consecutive evaluations without improving; the stall
    counter then resets. ``lr`` is the current rate, the one each SGD
    step takes.
    """

    def __init__(self, lr, patience=3, factor=0.1):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 < factor < 1.0:
            raise ValueError(f"factor must be in (0, 1), got {factor}")
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.lr = lr
        self.patience = patience
        self.factor = factor
        self._best = None
        self._stalled = 0

    def update(self, val_accuracy):
        """Record one evaluation; returns the (possibly reduced) rate."""
        if self._best is None or val_accuracy > self._best:
            self._best = val_accuracy
            self._stalled = 0
        else:
            self._stalled += 1
            if self._stalled >= self.patience:
                self.lr *= self.factor
                self._stalled = 0
        return self.lr
