"""Sparse 3D voxel library with a generated-kernel large-receptive-field operator.

Modules:
    core    - voxel coordinates, packing, voxelization
    conv    - reference submanifold / strided sparse convolution
    link    - linear kernel generator and block-proxy push/gather/pull
    net     - encoder, ERF probing, toy training
    data    - synthetic scenes and .bin scan IO
    cli     - the ``link`` command-line tool
"""

from .conv import (
    ConvWeights,
    KernelMap,
    build_kernel_map,
    kernel_offsets,
    sparse_conv_backward,
    sparse_conv_forward,
)
from .core import (
    BATCH_BOUND,
    COORD_BOUND,
    PointCloud,
    SparseTensor,
    pack_keys,
    voxelize,
)
from .errors import (
    BoundsError,
    ConfigError,
    DimensionError,
    DivergenceError,
    DuplicateCoordError,
    FileFormatError,
)
from .link import (
    BlockPartition,
    KernelGenerator,
    LinKConfig,
    LinKState,
    anchored_xyz,
    count_dense_kernel_params,
    count_generator_params,
    generate_kernel,
    link_backward,
    link_forward,
    link_oracle,
    partition_blocks,
    pull,
    push_proxies,
)
from .net import (
    Encoder,
    EncoderConfig,
    LinKModule,
    SegModel,
    build_encoder,
    downsample_labels,
    erf_map,
    erf_mass_radius,
    toy_train,
)

__version__ = "0.1.0"
