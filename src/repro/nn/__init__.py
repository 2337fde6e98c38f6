"""Numpy DNN training substrate (autograd, layers, models, data, training).

This package replaces the PyTorch stack the FORMS authors used, so the
repo runs on NumPy alone.  Public surface:

* :class:`repro.nn.Tensor` — autograd array
* :mod:`repro.nn.functional` — conv2d / pooling / batch-norm / losses
* layers: :class:`Conv2d`, :class:`Linear`, :class:`BatchNorm2d`, containers
* models: :class:`LeNet5`, :class:`VGG`, :class:`ResNet` (+ builders)
* data: synthetic dataset generators standing in for the paper's datasets
* training: :func:`fit`, :func:`evaluate`
"""

from . import functional
from .data import (DataLoader, Dataset, load_dataset, make_synthetic,
                   synthetic_cifar10, synthetic_cifar100, synthetic_imagenet,
                   synthetic_mnist)
from .metrics import (ClassificationReport, classification_report,
                      confusion_matrix, predictions_from_logits,
                      topk_accuracy)
from .layers import (AvgPool2d, BatchNorm1d, BatchNorm2d, Conv2d, Dropout,
                     Flatten, GlobalAvgPool2d, Linear, MaxPool2d, Module,
                     Parameter, ReLU, Sequential, compressible_layers,
                     set_init_seed)
from .models import (VGG, BasicBlock, Bottleneck, LeNet5, ResNet, build_model,
                     resnet18, resnet20, resnet50)
from .optim import SGD, Adam, Optimizer, StepLR
from .tensor import Tensor, concatenate, no_grad, stack
from .trainer import (EpochStats, History, evaluate, evaluate_topk, fit,
                      recalibrate_batchnorm)

__all__ = [
    "Tensor", "no_grad", "concatenate", "stack",
    "Module", "Parameter", "Conv2d", "Linear", "BatchNorm1d", "BatchNorm2d",
    "ReLU", "MaxPool2d", "AvgPool2d", "GlobalAvgPool2d", "Flatten", "Dropout",
    "Sequential", "compressible_layers", "set_init_seed",
    "LeNet5", "VGG", "ResNet", "BasicBlock", "Bottleneck",
    "resnet18", "resnet20", "resnet50", "build_model",
    "SGD", "Adam", "Optimizer", "StepLR",
    "Dataset", "DataLoader", "make_synthetic", "load_dataset",
    "synthetic_mnist", "synthetic_cifar10", "synthetic_cifar100", "synthetic_imagenet",
    "fit", "evaluate", "evaluate_topk", "History", "EpochStats",
    "recalibrate_batchnorm",
    "confusion_matrix", "classification_report", "ClassificationReport",
    "topk_accuracy", "predictions_from_logits",
    "functional",
]
