#!/usr/bin/env bash
# Run a pabp-fuzz command with a fresh --scratch-dir and fail unless it
# exits 0 and leaves that directory empty: every oracle removes the
# checkpoints and journals it writes there (registered as ctests in
# tests/CMakeLists.txt).
#
#   fuzz_scratch.sh DIR PABP-FUZZ [ARGS...]
#
# DIR is emptied first and removed on success.
set -uo pipefail
dir=$1
shift
rm -rf "$dir"
mkdir -p "$dir" || exit 1

"$@" --scratch-dir "$dir"
status=$?
if [ "$status" -ne 0 ]; then
    echo "FAILED: $* exited $status" >&2
    exit 1
fi
left=$(ls -A "$dir")
if [ -n "$left" ]; then
    echo "FAILED: $* left scratch files in $dir:" >&2
    echo "$left" >&2
    exit 1
fi
rmdir "$dir"
