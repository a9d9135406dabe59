"""MaxMin CNN: channel-duplicating convolutional blocks with from-scratch backprop."""
from .data import LabeledImages, load_cifar10, load_mnist, split_train_val, zca_apply, zca_fit
from .errors import (ConfigError, DataError, DivergenceError, LayerStateError, MaxMinError,
                     ShapeError, WeightFileError)
from .models import (Network, NetworkSpec, build_net, build_network, load_weights, preset_spec,
                     reduce_to_baseline, save_weights)
from .optim import SGD, PlateauScheduler
from .train import TrainConfig, evaluate, grad_check

__version__ = "0.1.0"
