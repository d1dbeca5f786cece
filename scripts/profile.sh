#!/usr/bin/env bash
# CPU profile of one benchmark workload, per function, without `perf`.
#
#   scripts/profile.sh <workload> [--seconds S] [--seed N]
#
# Builds benchmark/ with frame pointers and line tables into its own
# target directory (target/profile/build: benchmark/ and its target stay
# untouched), runs one workload (default 20 s, seed 42) under a SIGPROF
# sampler loaded with LD_PRELOAD, and prints two tables over all samples:
#
#   self       the innermost inlined function at the sampled PC
#   inclusive  every function on any frame's inline chain, once per sample
#
# The sampler is the C shared object below, built with cc: its constructor
# arms setitimer(ITIMER_PROF) at 1 ms of CPU time (≈ 4 ms effective on a
# 250 Hz kernel), its handler stores the interrupted PC plus a
# frame-pointer walk, and an atexit hook writes the samples. PCs in the
# benchmark binary are symbolised with `addr2line -i` on (address − load
# base); PCs in shared libraries take the nearest `nm -D` symbol at or
# below them. Two traps when reading the tables:
#
#   - Leaf libc functions (memcmp/bcmp, memcpy, malloc's fast path) set
#     up no frame, so the walk's first return address is their caller's
#     *caller*: a `bcmp` sample is not counted inclusive in the function
#     that issued the compare, only from the one above it.
#   - Named by the nearest exported symbol, libc's internal variants take
#     whichever exported name precedes them: with Debian 12's glibc, the
#     vectorised `bcmp` shows as `__nss_database_lookup` and malloc
#     internals as `__default_morecore`.
#
# Raw samples stay in target/profile/samples.txt, one line per sample,
# innermost first: `0x<offset>` in the binary, `<library>+0x<offset>`
# outside it.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  awk 'NR > 1 { if (!/^#/) exit; sub(/^# ?/, ""); print }' "$0"
}

[ $# -ge 1 ] || { usage >&2; exit 2; }
case "$1" in -h|--help) usage; exit 0 ;; esac
workload=$1
shift
seconds=20
seed=42
while [ $# -gt 0 ]; do
  case "$1" in
    --seconds) seconds=${2:?--seconds needs a value}; shift 2 ;;
    --seed) seed=${2:?--seed needs a value}; shift 2 ;;
    *) echo "unknown argument '$1'" >&2; usage >&2; exit 2 ;;
  esac
done

dir=target/profile
mkdir -p "$dir"
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
  cargo build --release --offline --quiet \
  --manifest-path benchmark/Cargo.toml --target-dir "$dir/build"
bin=$dir/build/release/dex-benchmark

cat > "$dir/sampler.c" <<'C'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define DEPTH 64
#define WORDS (1 << 22) /* per sample: frame count, then frames */

static uint64_t buf[WORDS], used;
static uint64_t exe_bias, exe_lo = UINT64_MAX, exe_hi;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
  const mcontext_t *mc = &((ucontext_t *)ctx)->uc_mcontext;
  uint64_t frames[DEPTH], n = 0;
  frames[n++] = mc->gregs[REG_RIP];
  /* The handler runs on the interrupted stack, below its frames. */
  uint64_t lo = (uint64_t)&frames, *fp = (uint64_t *)mc->gregs[REG_RBP];
  while (n < DEPTH && (uint64_t)fp > lo && (uint64_t)fp < lo + (8 << 20) &&
         ((uint64_t)fp & 7) == 0 && fp[1]) {
    frames[n++] = fp[1] - 1; /* the call instruction, not the return */
    if ((uint64_t *)fp[0] <= fp) break;
    fp = (uint64_t *)fp[0];
  }
  uint64_t at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
  if (at + n + 1 > WORDS) return;
  memcpy(&buf[at + 1], frames, n * sizeof frames[0]);
  __atomic_store_n(&buf[at], n, __ATOMIC_RELEASE);
  (void)sig, (void)info;
}

static int find_exe(struct dl_phdr_info *info, size_t size, void *data) {
  exe_bias = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; i++) {
    const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
    if (ph->p_type != PT_LOAD) continue;
    uint64_t lo = info->dlpi_addr + ph->p_vaddr, hi = lo + ph->p_memsz;
    if (lo < exe_lo) exe_lo = lo;
    if (hi > exe_hi) exe_hi = hi;
  }
  (void)size, (void)data;
  return 1; /* the first object is the executable */
}

static void put(FILE *out, uint64_t pc) {
  Dl_info dl;
  if (pc >= exe_lo && pc < exe_hi) {
    fprintf(out, " 0x%lx", (unsigned long)(pc - exe_bias));
  } else if (dladdr((void *)pc, &dl) && dl.dli_fname) {
    fprintf(out, " %s+0x%lx", dl.dli_fname, (unsigned long)(pc - (uint64_t)dl.dli_fbase));
  } else {
    fputs(" ?", out);
  }
}

static void dump(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  FILE *out = fopen(getenv("PROFILE_OUT"), "w");
  if (!out) return;
  dl_iterate_phdr(find_exe, NULL);
  uint64_t end = used < WORDS ? used : WORDS;
  for (uint64_t at = 0; at < end && buf[at]; at += buf[at] + 1) {
    for (uint64_t i = 1; i <= buf[at]; i++) put(out, buf[at + i]);
    fputc('\n', out);
  }
  fclose(out);
}

__attribute__((constructor)) static void start(void) {
  if (!getenv("PROFILE_OUT")) return;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval every = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every, NULL);
  atexit(dump);
}
C
cc -O2 -shared -fPIC -o "$dir/sampler.so" "$dir/sampler.c" -ldl

samples=$dir/samples.txt
rm -f "$samples"
if ! PROFILE_OUT="$samples" LD_PRELOAD="$PWD/$dir/sampler.so" "$bin" --workload "$workload" \
  --seconds "$seconds" --seed "$seed" --out "$dir/out" > "$dir/run.log"; then
  echo "the $workload run failed; its output:" >&2
  cat "$dir/run.log" >&2
  exit 1
fi
[ -s "$samples" ] || { echo "the sampler wrote no samples" >&2; exit 1; }

# One line per distinct frame: the frame, a tab, its inline chain
# (innermost first, \037-separated, Rust hash suffixes dropped).
tr ' ' '\n' < "$samples" | awk 'NF' | sort -u > "$dir/frames.txt"
{
  awk '$0 == "?" { print "?\t?" }' "$dir/frames.txt"
  # Library frames: the nearest `nm -D` symbol at or below the offset. A
  # library nm cannot read (the kernel's linux-vdso.so.1 is no file on
  # disk) names its frames `[<library>]`.
  awk -F'[+]0x' 'NF == 2 { print $1 }' "$dir/frames.txt" | sort -u | while read -r lib; do
    if ! nm -D --defined-only "$lib" 2> /dev/null \
      | awk 'NF == 3 { sub(/@.*/, "", $3); print $1, $3 }' > "$dir/nm.txt"; then
      awk -F'[+]0x' -v lib="$lib" -v name="[${lib##*/}]" '$1 == lib { print $0 "\t" name }' "$dir/frames.txt"
      continue
    fi
    awk -F'[+]0x' -v lib="$lib" '$1 == lib' "$dir/frames.txt" | awk -v name="${lib##*/}" '
      function hex(s,   v, i) {
        for (i = 1; i <= length(s); i++) v = 16 * v + index("0123456789abcdef", substr(s, i, 1)) - 1
        return v
      }
      FILENAME != "-" { at[++n] = hex($1); sym[n] = $2; next }
      {
        split($0, part, /[+]0x/); off = hex(part[2]); best = "?"; below = -1
        for (i = 1; i <= n; i++) if (at[i] <= off && at[i] > below) { below = at[i]; best = sym[i] }
        print $0 "\t" best "@" name
      }' "$dir/nm.txt" -
  done
  awk '/^0x/' "$dir/frames.txt" > "$dir/offsets.txt"
  addr2line -a -i -f -C -e "$bin" < "$dir/offsets.txt" | awk -v offsets="$dir/offsets.txt" '
    /^0x[0-9a-f]+$/ {
      if (frame != "") print frame "\t" chain
      getline frame < offsets
      chain = ""; line = 0; next
    }
    line++ % 2 == 0 {
      sub(/::h[0-9a-f]+$/, "")
      chain = chain == "" ? $0 : chain "\037" $0
    }
    END { if (frame != "") print frame "\t" chain }'
} > "$dir/chains.txt"

awk -F'\t' '
  FNR == NR { chain[$1] = $2; next }
  {
    n = split($0, frame, " ")
    total++
    split(chain[frame[1]], fn, "\037")
    self[fn[1]]++
    for (f in seen) delete seen[f]
    for (i = 1; i <= n; i++) {
      m = split(chain[frame[i]], fn, "\037")
      for (j = 1; j <= m; j++) if (!(fn[j] in seen)) { seen[fn[j]] = 1; incl[fn[j]]++ }
    }
  }
  END {
    print "total\t" total
    for (f in self) print "self\t" self[f] "\t" f
    for (f in incl) print "inclusive\t" incl[f] "\t" f
  }' "$dir/chains.txt" "$samples" > "$dir/counts.txt"

total=$(awk -F'\t' '$1 == "total" { print $2 }' "$dir/counts.txt")
echo "profile: $workload, seed $seed, $seconds s, $total samples"
for kind in self inclusive; do
  echo "== $kind (top 30)"
  awk -F'\t' -v kind="$kind" '$1 == kind' "$dir/counts.txt" | sort -t"$(printf '\t')" -k2,2nr -k3,3 \
    | awk -F'\t' -v total="$total" 'NR <= 30 { printf "%6.1f%% %6d  %s\n", 100 * $2 / total, $2, $3 }'
done
