#!/bin/sh
# Regenerates the golden-report corpus under tests/golden/ from the shipped
# campaign specs, via the pwcet CLI — the same path the golden_report_test
# diffs against, so a corpus produced here is by construction what the test
# expects. Run from anywhere; pass the build directory as $1 (default:
# ./build relative to the repo root).
#
#   ./tools/regen-golden.sh [build-dir]
#
# Regenerate only after an intentional analysis change, and review the
# resulting diff: these files are the pinned byte-level contract of all
# eight paper artifacts.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
pwcet="$build_dir/pwcet"

if [ ! -x "$pwcet" ]; then
  echo "error: $pwcet not found or not executable (build first)" >&2
  exit 1
fi

mkdir -p "$repo_root/tests/golden"
for spec in "$repo_root"/specs/*.json; do
  stem=$(basename "$spec" .json)
  # Store off: golden bytes must come from a clean recomputation, not from
  # whatever cache directory the environment points at.
  "$pwcet" run "$spec" --store off --output "$repo_root/tests/golden/$stem"
  echo "regenerated tests/golden/$stem"
done
