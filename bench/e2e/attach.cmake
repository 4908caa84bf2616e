# Adds bench/e2e to the repository's root tree without editing its CMake
# files. Configure the root tree with
#   -DCMAKE_PROJECT_INCLUDE=<checkout>/bench/e2e/attach.cmake
# (run.py does): CMake includes this file at the end of the root's
# project() call, and the deferred include of bench/e2e/CMakeLists.txt runs
# after every subdirectory of the root, so bench_e2e is defined with the
# tree's own targets and flags.
cmake_language(DEFER CALL include "${CMAKE_SOURCE_DIR}/bench/e2e/CMakeLists.txt")
