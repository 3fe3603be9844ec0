"""ResNet-50 via PARLOOPER CNN kernels (§IV-C, Fig 7, Table II).

The unique convolution shapes of ResNet-50 (He et al.) with their
occurrence counts drive both the standalone Fig 7 sweep and the Table II
end-to-end training throughput.  Convolutions use the Listing-4 kernel;
batchnorm / pooling / FC are priced as TPP elementwise and GEMM ops.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.stacks import STACKS
from ..kernels.conv import ConvSpec
from ..platform.machine import MachineModel
from ..tpp.dtypes import DType
from .opsim import OpCostModel

__all__ = ["RESNET50_CONV_LAYERS", "Rn50Layer", "resnet50_conv_specs",
           "resnet50_training_throughput", "resnet50_flops"]


@dataclass(frozen=True)
class Rn50Layer:
    """One unique RN50 conv shape: (C, K, H, W, R, S, stride) x count.

    H/W are the *output-producing padded input* spatial dims at the layer;
    counts are how many times the shape appears in the 50-layer topology.
    """

    layer_id: int
    C: int
    K: int
    H: int
    W: int
    R: int
    S: int
    stride: int
    count: int

    def spec(self, minibatch: int) -> ConvSpec:
        pad = (self.R - 1) // 2
        return ConvSpec(N=minibatch, C=self.C, K=self.K,
                        H=self.H + 2 * pad, W=self.W + 2 * pad,
                        R=self.R, S=self.S, stride=self.stride)


#: the 20 unique convolution shapes of ResNet-50 (as in prior TPP work
#: [20], [21]); layer 0 is the 7x7 stem
RESNET50_CONV_LAYERS = (
    Rn50Layer(0, 64, 64, 56, 56, 1, 1, 1, 1),      # conv2 1x1a (first)
    Rn50Layer(1, 64, 64, 56, 56, 3, 3, 1, 3),      # conv2 3x3
    Rn50Layer(2, 64, 256, 56, 56, 1, 1, 1, 3),     # conv2 1x1b
    Rn50Layer(3, 256, 64, 56, 56, 1, 1, 1, 2),     # conv2 1x1a (later)
    Rn50Layer(4, 256, 512, 56, 56, 1, 1, 2, 1),    # conv3 downsample
    Rn50Layer(5, 256, 128, 56, 56, 1, 1, 2, 1),    # conv3 1x1a
    Rn50Layer(6, 128, 128, 28, 28, 3, 3, 1, 4),    # conv3 3x3
    Rn50Layer(7, 128, 512, 28, 28, 1, 1, 1, 4),    # conv3 1x1b
    Rn50Layer(8, 512, 128, 28, 28, 1, 1, 1, 3),    # conv3 1x1a (later)
    Rn50Layer(9, 512, 1024, 28, 28, 1, 1, 2, 1),   # conv4 downsample
    Rn50Layer(10, 512, 256, 28, 28, 1, 1, 2, 1),   # conv4 1x1a
    Rn50Layer(11, 256, 256, 14, 14, 3, 3, 1, 6),   # conv4 3x3
    Rn50Layer(12, 256, 1024, 14, 14, 1, 1, 1, 6),  # conv4 1x1b
    Rn50Layer(13, 1024, 256, 14, 14, 1, 1, 1, 5),  # conv4 1x1a (later)
    Rn50Layer(14, 1024, 2048, 14, 14, 1, 1, 2, 1),  # conv5 downsample
    Rn50Layer(15, 1024, 512, 14, 14, 1, 1, 2, 1),  # conv5 1x1a
    Rn50Layer(16, 512, 512, 7, 7, 3, 3, 1, 3),     # conv5 3x3
    Rn50Layer(17, 512, 2048, 7, 7, 1, 1, 1, 3),    # conv5 1x1b
    Rn50Layer(18, 2048, 512, 7, 7, 1, 1, 1, 2),    # conv5 1x1a (later)
    Rn50Layer(19, 64, 256, 56, 56, 1, 1, 1, 1),    # conv2 projection
)


def resnet50_conv_specs(minibatch: int):
    """(layer, ConvSpec) pairs for a given minibatch."""
    return [(layer, layer.spec(minibatch))
            for layer in RESNET50_CONV_LAYERS]


def resnet50_flops(minibatch: int) -> float:
    """Total conv flops of one forward pass."""
    return sum(layer.spec(minibatch).flops * layer.count
               for layer in RESNET50_CONV_LAYERS)


def resnet50_training_throughput(machine: MachineModel,
                                 stack_name: str = "parlooper",
                                 minibatch: int | None = None,
                                 dtype: DType = DType.BF16) -> float:
    """End-to-end training images/second (Table II).

    "The minibatch size used on each platform equals the number of the
    corresponding cores."  Training = fwd + dgrad + wgrad (~3x fwd conv
    work) + batchnorm/ReLU elementwise + FC + optimizer traffic.
    """
    if minibatch is None:
        minibatch = machine.total_cores
    stack = STACKS[stack_name]
    cost = OpCostModel(machine, stack)

    t = 0.0
    for layer in RESNET50_CONV_LAYERS:
        spec = layer.spec(minibatch)
        # price the conv as its BRGEMM equivalent: M = output pixels,
        # N = K channels, K = C*R*S
        M = minibatch * spec.P * spec.Q
        t += layer.count * cost.gemm_seconds(
            M, spec.K, spec.C * spec.R * spec.S, dtype)
        # batchnorm + ReLU over the output activations (stats + apply),
        # fused with the conv in the TPP stacks
        elems = minibatch * spec.K * spec.P * spec.Q
        t += layer.count * cost.eltwise_seconds(elems, dtype, 5.0, n_ops=2)
    # stem conv (7x7/2 over 224x224) + pooling + FC head
    t += cost.gemm_seconds(minibatch * 112 * 112, 64, 3 * 49, dtype)
    t += cost.eltwise_seconds(minibatch * 64 * 112 * 112, dtype, 1.0, 1)
    t += cost.gemm_seconds(1000, minibatch, 2048, dtype)
    # backward: dgrad + wgrad
    t *= 3.0
    # SGD-momentum optimizer traffic over ~25.5M params
    t += cost.bandwidth_seconds(25.5e6 * (dtype.nbytes * 2 + 8))
    return minibatch / t
