#!/usr/bin/env bash
# Reachability gate: the duet_lib functions that no shipped binary keeps.
#
#   scripts/reach.sh [WORK_DIR]     (default: build-reach)
#
# Builds every bench (duet_bench) and example (duet_example) target and the
# hotcheck analyzer, plus the duetbench harness from its own CMakeLists into
# a separate directory, all at -O0 with -ffunction-sections and
# -Wl,--gc-sections: each linked binary then keeps exactly the functions some
# path in it can call. -O0 matters: at -O2 a function every caller inlined
# loses its out-of-line copy and would be reported as unkept.
#
# It lists the global functions (nm type T) that duet_lib's objects define
# and that no binary keeps, one "<source>: <function>" line each, and diffs
# that list against scripts/reach_baseline.txt. The baseline may only shrink:
#   * an unkept function that is not on it fails the gate (call it from a
#     binary or delete it);
#   * an entry that a binary now keeps, or that no longer exists, fails the
#     gate too, until it is taken off the baseline.
# Exit 0 when the list equals the baseline, 1 otherwise.
set -euo pipefail
export LC_ALL=C  # one collation for sort, join and comm
cd "$(dirname "$0")/.."
WORK="${1:-build-reach}"
BASELINE=scripts/reach_baseline.txt
mkdir -p "$WORK"

CMAKE_FLAGS=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
             -DCMAKE_CXX_FLAGS=-ffunction-sections
             -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

build() {  # build SOURCE_DIR BUILD_DIR TARGET...
  local src="$1" dir="$2"
  shift 2
  if ! { cmake -S "$src" -B "$dir" "${CMAKE_FLAGS[@]}" &&
         cmake --build "$dir" -j"$(nproc)" --target "$@"; } >"$dir.log" 2>&1; then
    tail -n 40 "$dir.log" >&2
    echo "reach: build of $src failed (full log: $dir.log)" >&2
    exit 1
  fi
}

mapfile -t benches < <(sed -n 's/^duet_bench(\([A-Za-z0-9_]*\))$/\1/p' bench/CMakeLists.txt)
mapfile -t examples < <(sed -n 's/^duet_example(\([A-Za-z0-9_]*\))$/\1/p' examples/CMakeLists.txt)
build . "$WORK/main" "${benches[@]}" "${examples[@]}" hotcheck_bin duet_lib
build duetbench "$WORK/duetbench" duetbench

binaries=("$WORK/main/tools/hotcheck/hotcheck" "$WORK/duetbench/duetbench")
for b in "${benches[@]}"; do binaries+=("$WORK/main/bench/$b"); done
for e in "${examples[@]}"; do binaries+=("$WORK/main/examples/$e"); done

# Every symbol any binary defines (kept through --gc-sections).
for b in "${binaries[@]}"; do nm --defined-only "$b" | awk '{print $NF}'; done \
  | sort -u > "$WORK/kept.txt"

# "<mangled> <source>" for each global function a duet_lib object defines.
objdir="$WORK/main/src/CMakeFiles/duet_lib.dir"
find "$objdir" -name '*.o' | sort | while read -r obj; do
  src="${obj#"$objdir"/}"
  nm --defined-only -g "$obj" | awk -v src="${src%.o}" '$2 == "T" {print $3, src}'
done | sort -k1,1 > "$WORK/defined.txt"

# Unkept = defined minus kept, demangled (a constructor's complete and base
# object symbols fold into one line); std::string spelled as written.
join -v1 "$WORK/defined.txt" "$WORK/kept.txt" \
  | awk '{print $2 ": " $1}' | c++filt \
  | sed 's/std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >/std::string/g' \
  | sort -u > "$WORK/unkept.txt"

{ grep -vE '^(#|$)' "$BASELINE" || true; } | sort > "$WORK/baseline.txt"
objects=$(cut -d: -f1 "$WORK/unkept.txt" | sort -u | wc -l)
echo "reach: $(wc -l < "$WORK/unkept.txt") functions in $objects duet_lib objects" \
     "that no binary keeps (baseline: $(wc -l < "$WORK/baseline.txt"))"

status=0
if comm -23 "$WORK/unkept.txt" "$WORK/baseline.txt" | grep .; then
  echo "reach: ^ kept by no binary and not on $BASELINE: call it from a" \
       "binary or delete it" >&2
  status=1
fi
if comm -13 "$WORK/unkept.txt" "$WORK/baseline.txt" | grep .; then
  echo "reach: ^ on $BASELINE but now kept or gone: take it off the baseline" >&2
  status=1
fi
exit "$status"
