#!/bin/sh
# Malloc counter: run a command with a tiny LD_PRELOAD shim that counts
# every malloc/calloc/realloc/aligned allocation (operator new lands in
# malloc), then print each process's count and the total.
#
# Usage: malloc_count.sh [--sites N] CMD [ARGS...]
#   e.g. tools/malloc_count.sh build/perfbench/perfbench \
#            --workload=btree_ops --seed=1
#        tools/malloc_count.sh --sites 5 build/perfbench/perfbench \
#            --workload=fluid_local --seed=1
#
# The shim is compiled with the system C compiler ($CC, default cc) into a
# temporary directory that is removed on exit; nothing is written into the
# repository.  The command's own stdout/stderr pass through untouched; the
# counts go to stderr after it exits, one "malloc_count pid=P N" line per
# process that ran with the shim, then "malloc_count total N".  The exit
# status is the command's.  Counting needs glibc (the shim forwards to
# __libc_malloc and friends), and a statically linked or sanitized binary
# bypasses it.
#
# --sites N also records the call stack of every allocation (backtrace(),
# up to 10 frames above the shim) and prints, after the totals, the N
# stacks that allocated most often, summed over every process, with each
# frame resolved by addr2line to its function and source line.  Frames in
# a binary built without debug info resolve to "??".  Recording a stack
# costs about a microsecond per allocation, so time nothing with it.
set -eu

sites=0
if [ "${1:-}" = "--sites" ]; then
  if [ "$#" -lt 2 ]; then
    echo "usage: $0 [--sites N] CMD [ARGS...]" >&2
    exit 2
  fi
  sites="$2"
  shift 2
  case "$sites" in
    '' | *[!0-9]*)
      echo "malloc_count: --sites needs a whole number, got '$sites'" >&2
      exit 2
      ;;
  esac
fi
if [ "$#" -lt 1 ]; then
  echo "usage: $0 [--sites N] CMD [ARGS...]" >&2
  exit 2
fi

tmp="$(mktemp -d "${TMPDIR:-/tmp}/malloc_count.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT INT TERM

cat > "$tmp/shim.c" <<'EOF'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <fcntl.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <unistd.h>

extern void* __libc_malloc(size_t);
extern void* __libc_calloc(size_t, size_t);
extern void* __libc_realloc(void*, size_t);
extern void* __libc_memalign(size_t, size_t);

static unsigned long long calls;

/* Call-site table (only with MALLOC_COUNT_SITES set): open addressing on a
 * hash of the stack's return addresses, under a spinlock.  Stacks that find
 * the table full are counted in `dropped`. */
enum { kFrames = 10, kSkip = 2, kSlots = 1 << 16 };
struct Site {
  unsigned long long count;
  int depth;
  void* pc[kFrames];
};
static struct Site sites[kSlots];
static unsigned long long dropped;
static int record_sites;
static int lock;
static __thread int in_hook;

/* Out of line, like count() is inlined into each allocator below, so the
 * two frames kSkip drops are always record() and the allocator. */
__attribute__((noinline)) static void record(void) {
  void* raw[kFrames + kSkip];
  int n = backtrace(raw, kFrames + kSkip) - kSkip;
  if (n <= 0) return;
  uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < n; ++i) {
    h = (h ^ (uintptr_t)raw[i + kSkip]) * 1099511628211ull;
  }
  while (__atomic_exchange_n(&lock, 1, __ATOMIC_ACQUIRE)) {
  }
  for (unsigned probe = 0; probe < kSlots; ++probe) {
    struct Site* s = &sites[(h + probe) & (kSlots - 1)];
    int same = s->depth == n;
    for (int i = 0; same && i < n; ++i) same = s->pc[i] == raw[i + kSkip];
    if (same) {
      ++s->count;
      break;
    }
    if (s->depth == 0) {
      s->depth = n;
      for (int i = 0; i < n; ++i) s->pc[i] = raw[i + kSkip];
      s->count = 1;
      break;
    }
    if (probe + 1 == kSlots) ++dropped;
  }
  __atomic_store_n(&lock, 0, __ATOMIC_RELEASE);
}

/* backtrace() loads its unwinder on first use, and that load allocates:
 * in_hook keeps those (and any other nested) allocations out of the table. */
__attribute__((always_inline)) static inline void count(void) {
  __atomic_fetch_add(&calls, 1, __ATOMIC_RELAXED);
  if (!record_sites || in_hook) return;
  in_hook = 1;
  record();
  in_hook = 0;
}

__attribute__((constructor)) static void init(void) {
  if (getenv("MALLOC_COUNT_SITES") == NULL) return;
  void* warm[1];
  in_hook = 1;
  backtrace(warm, 1);
  in_hook = 0;
  record_sites = 1;
}

void* malloc(size_t n) { count(); return __libc_malloc(n); }
void* calloc(size_t n, size_t s) { count(); return __libc_calloc(n, s); }
void* realloc(void* p, size_t n) { count(); return __libc_realloc(p, n); }
void* memalign(size_t a, size_t n) { count(); return __libc_memalign(a, n); }
void* aligned_alloc(size_t a, size_t n) {
  count();
  return __libc_memalign(a, n);
}
int posix_memalign(void** out, size_t a, size_t n) {
  count();
  void* p = __libc_memalign(a, n);
  if (p == NULL) return 12; /* ENOMEM */
  *out = p;
  return 0;
}

/* One line per stack: count, then each frame as "module offset address". */
static void write_sites(const char* path) {
  int fd = open(path, O_WRONLY | O_APPEND | O_CREAT, 0600);
  if (fd < 0) return;
  char line[4096];
  for (int k = 0; k < kSlots; ++k) {
    const struct Site* s = &sites[k];
    if (s->depth == 0) continue;
    int len = snprintf(line, sizeof line, "%llu", s->count);
    for (int i = 0; i < s->depth && len < (int)sizeof line - 512; ++i) {
      Dl_info info;
      const char* module = "?";
      uintptr_t base = 0;
      if (dladdr(s->pc[i], &info) != 0 && info.dli_fname != NULL &&
          info.dli_fname[0] != '\0') {
        module = info.dli_fname;
        base = (uintptr_t)info.dli_fbase;
      }
      /* The return address, less one: the call, not what follows it. */
      const uintptr_t pc = (uintptr_t)s->pc[i] - 1;
      len += snprintf(line + len, sizeof line - len, " %s 0x%lx 0x%lx",
                      module, (unsigned long)(pc - base), (unsigned long)pc);
    }
    len += snprintf(line + len, sizeof line - len, "\n");
    (void)!write(fd, line, (size_t)len);
  }
  if (dropped > 0) {
    int len = snprintf(line, sizeof line, "%llu [table full]\n", dropped);
    (void)!write(fd, line, (size_t)len);
  }
  close(fd);
}

/* Runs after the program's own exit handlers; writes without allocating
 * (dladdr reads the loader's tables in place). */
__attribute__((destructor)) static void report(void) {
  in_hook = 1;
  const char* path = getenv("MALLOC_COUNT_OUT");
  if (path == NULL) return;
  int fd = open(path, O_WRONLY | O_APPEND | O_CREAT, 0600);
  if (fd < 0) return;
  char line[64];
  int len = snprintf(line, sizeof line, "%ld %llu\n", (long)getpid(),
                     __atomic_load_n(&calls, __ATOMIC_RELAXED));
  if (len > 0) (void)!write(fd, line, (size_t)len);
  close(fd);
  const char* sites_path = getenv("MALLOC_COUNT_SITES");
  if (sites_path != NULL) write_sites(sites_path);
}
EOF

"${CC:-cc}" -O2 -shared -fPIC -o "$tmp/shim.so" "$tmp/shim.c" -ldl

if [ "$sites" -gt 0 ]; then
  MALLOC_COUNT_SITES="$tmp/sites"
  export MALLOC_COUNT_SITES
fi

status=0
MALLOC_COUNT_OUT="$tmp/counts" LD_PRELOAD="$tmp/shim.so${LD_PRELOAD:+:$LD_PRELOAD}" \
  "$@" || status=$?

if [ ! -s "$tmp/counts" ]; then
  echo "malloc_count: no process reported a count" >&2
  exit "$status"
fi
awk '{ printf "malloc_count pid=%s %s\n", $1, $2; total += $2 }
     END { printf "malloc_count total %d\n", total }' "$tmp/counts" >&2

if [ "$sites" -gt 0 ] && [ -s "$tmp/sites" ]; then
  # Sum equal stacks across processes, keep the N largest.
  awk '{ n = $1; $1 = ""; sum[$0] += n }
       END { for (k in sum) print sum[k] k }' "$tmp/sites" |
    sort -k1,1nr | head -n "$sites" > "$tmp/top"
  rank=0
  while read -r n frames; do
    rank=$((rank + 1))
    echo "malloc_count site $rank: $n calls" >&2
    # shellcheck disable=SC2086
    set -- $frames
    depth=0
    while [ "$#" -ge 3 ]; do
      module="$1" offset="$2" address="$3"
      shift 3
      depth=$((depth + 1))
      where="??"
      if [ -r "$module" ]; then
        # A fixed-address executable is looked up by address, the rest
        # (shared objects, position-independent executables) by offset.
        if readelf -h "$module" 2>/dev/null | grep -q 'Type:.*EXEC'; then
          offset="$address"
        fi
        # -i: a frame with inlined calls prints the innermost first,
        # then one "(inlined by)" line per caller it was inlined into.
        where="$(addr2line -f -i -C -p -e "$module" "$offset" 2>/dev/null |
                 sed '2,$s/^/     /')"
      fi
      echo "  #$depth $where [$(basename "$module")]" >&2
    done
  done < "$tmp/top"
fi
exit "$status"
