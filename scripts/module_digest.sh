#!/bin/sh
# module_digest.sh — fingerprints of everything the compiler produces for
# the example corpus: for each examples/programs/*.p at -O0 and at -O1,
# the sha256 of the V program (--dump vec), of the derivation (--dump
# trace), of the module image (--emit-module: the bytecode; images carry
# no memory plan) and of the memory plan (--analyze=memory: the static
# alloc counts and the M3xx advisories).
#
#   scripts/module_digest.sh [BUILD_DIR]     (default: build)
#
# Run it against two builds and diff the output: a refactor of the
# compiler, the VCODE optimizer or the memory planner that is meant to
# leave the output unchanged must print identical lines. A change to the
# image format (which bumps kModuleVersion) moves only the module lines;
# a planner change moves only the plan lines.
#
# scripts/module_digest.expected holds the lines of the committed
# compiler, and CI diffs this script's output against it, so any change
# to the compiler's output fails there. The lines do not depend on the
# build type or on PROTEUS_BACKEND. After a change that is meant to move
# the output, and whose new output was checked, regenerate the file:
#
#   scripts/module_digest.sh build > scripts/module_digest.expected
#
# and say in the change which lines moved and why.
set -eu

build=${1:-build}
proteusc="$build/tools/proteusc"
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

digest() {
  sha256sum "$1" | cut -d' ' -f1
}

for program in "$root"/examples/programs/*.p; do
  name=$(basename "$program")
  for level in -O0 -O1; do
    "$proteusc" "$program" "$level" --dump vec > "$tmp/vec"
    "$proteusc" "$program" "$level" --dump trace > "$tmp/trace"
    "$proteusc" "$program" "$level" --emit-module "$tmp/module.pvcm"
    "$proteusc" "$program" "$level" --analyze=memory > "$tmp/plan" 2>&1
    echo "$(digest "$tmp/vec")  $name $level vec"
    echo "$(digest "$tmp/trace")  $name $level trace"
    echo "$(digest "$tmp/module.pvcm")  $name $level module"
    echo "$(digest "$tmp/plan")  $name $level plan"
  done
done
