# Cross-compile toolchain for the SENECA edge target class (aarch64 Linux,
# e.g. the ZCU104's Cortex-A53 PS). CI both builds with it and runs the
# INT8 kernel suite under qemu-user, so the NEON kernels
# (src/quant/kernels_neon.cpp) and the POSIX socket/process layer are
# exercised for the real target on every PR, not just on x86 hosts.
#
#   cmake -B build-aarch64 -S . \
#     -DCMAKE_TOOLCHAIN_FILE=cmake/toolchains/aarch64-linux-gnu.cmake \
#     -DSENECA_BUILD_TESTS=OFF -DSENECA_BUILD_BENCH=OFF \
#     -DSENECA_BUILD_EXAMPLES=OFF
#
# (Tests need a cross-built GTest — CI compiles one from the distro source
# package with this same toolchain and points CMAKE_PREFIX_PATH at it. Bench
# and examples need no further library; CI leaves them off because it runs
# only the kernel suite and seneca_boardd under qemu.)

set(CMAKE_SYSTEM_NAME Linux)
set(CMAKE_SYSTEM_PROCESSOR aarch64)

set(CMAKE_C_COMPILER aarch64-linux-gnu-gcc)
set(CMAKE_CXX_COMPILER aarch64-linux-gnu-g++)

# The ZCU104 PS is a Cortex-A53; -mcpu both tunes for it and guarantees the
# Advanced SIMD (NEON) ISA the kernel layer's intrinsics require.
set(CMAKE_C_FLAGS_INIT "-mcpu=cortex-a53")
set(CMAKE_CXX_FLAGS_INIT "-mcpu=cortex-a53")

# Search headers/libs only in the target environment; find programs
# (cmake, ninja, ccache) only on the host.
set(CMAKE_FIND_ROOT_PATH /usr/aarch64-linux-gnu)
set(CMAKE_FIND_ROOT_PATH_MODE_PROGRAM NEVER)
set(CMAKE_FIND_ROOT_PATH_MODE_LIBRARY ONLY)
set(CMAKE_FIND_ROOT_PATH_MODE_INCLUDE ONLY)
set(CMAKE_FIND_ROOT_PATH_MODE_PACKAGE ONLY)
