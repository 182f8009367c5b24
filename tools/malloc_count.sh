#!/bin/sh
# Malloc counter: run a command with a tiny LD_PRELOAD shim that counts
# every malloc/calloc/realloc/aligned allocation (operator new lands in
# malloc), then print each process's count and the total.
#
# Usage: malloc_count.sh CMD [ARGS...]
#   e.g. tools/malloc_count.sh build/perfbench/perfbench \
#            --workload=btree_ops --seed=1
#
# The shim is compiled with the system C compiler ($CC, default cc) into a
# temporary directory that is removed on exit; nothing is written into the
# repository.  The command's own stdout/stderr pass through untouched; the
# counts go to stderr after it exits, one "malloc_count pid=P N" line per
# process that ran with the shim, then "malloc_count total N".  The exit
# status is the command's.  Counting needs glibc (the shim forwards to
# __libc_malloc and friends), and a statically linked or sanitized binary
# bypasses it.
set -eu

if [ "$#" -lt 1 ]; then
  echo "usage: $0 CMD [ARGS...]" >&2
  exit 2
fi

tmp="$(mktemp -d "${TMPDIR:-/tmp}/malloc_count.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT INT TERM

cat > "$tmp/shim.c" <<'EOF'
#include <fcntl.h>
#include <stddef.h>
#include <stdio.h>
#include <stdlib.h>
#include <unistd.h>

extern void* __libc_malloc(size_t);
extern void* __libc_calloc(size_t, size_t);
extern void* __libc_realloc(void*, size_t);
extern void* __libc_memalign(size_t, size_t);

static unsigned long long calls;

static void count(void) { __atomic_fetch_add(&calls, 1, __ATOMIC_RELAXED); }

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

/* Runs after the program's own exit handlers; writes without allocating. */
__attribute__((destructor)) static void report(void) {
  const char* path = getenv("MALLOC_COUNT_OUT");
  if (path == NULL) return;
  int fd = open(path, O_WRONLY | O_APPEND | O_CREAT, 0600);
  if (fd < 0) return;
  char line[64];
  int len = snprintf(line, sizeof line, "%ld %llu\n", (long)getpid(),
                     __atomic_load_n(&calls, __ATOMIC_RELAXED));
  if (len > 0) (void)!write(fd, line, (size_t)len);
  close(fd);
}
EOF

"${CC:-cc}" -O2 -shared -fPIC -o "$tmp/shim.so" "$tmp/shim.c"

status=0
MALLOC_COUNT_OUT="$tmp/counts" LD_PRELOAD="$tmp/shim.so${LD_PRELOAD:+:$LD_PRELOAD}" \
  "$@" || status=$?

if [ ! -s "$tmp/counts" ]; then
  echo "malloc_count: no process reported a count" >&2
  exit "$status"
fi
awk '{ printf "malloc_count pid=%s %s\n", $1, $2; total += $2 }
     END { printf "malloc_count total %d\n", total }' "$tmp/counts" >&2
exit "$status"
