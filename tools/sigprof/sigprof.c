/* LD_PRELOAD sampling profiler: SIGPROF on process CPU time, one line per
 * sample: the interrupted PC and, when that PC is outside the main binary
 * (a libc leaf such as memmove or malloc), the first stack word that points
 * into the main binary's text — the Rust caller. The stack is read with
 * process_vm_readv, which returns an error instead of faulting when the scan
 * runs off a coroutine stack into its guard page.
 *   gcc -O2 -shared -fPIC -o sigprof.so sigprof.c
 *   SIGPROF_OUT=prof.%p.txt LD_PRELOAD=./sigprof.so PROGRAM ...
 * Every process that preloads the library (a wrapper such as `timeout`, a
 * driver and the child it re-executes) writes its own file: `%p` in
 * SIGPROF_OUT becomes the process id, and a process that took no sample
 * writes nothing, so a wrapper cannot overwrite its child's profile. The
 * file's first line is `cpu_s SECONDS`, the process's CPU time, from which
 * the real sample rate follows. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 20)
#define SCAN_WORDS 64
#define HZ 997 /* prime: does not beat against periodic work */
static uint64_t samples[MAX_SAMPLES][2]; /* bss: touched pages only */
static volatile uint32_t n_samples;
static uint64_t text_lo, text_hi; /* main binary's executable mapping */
static pid_t self;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    const ucontext_t *uc = ctx;
    uint64_t pc = uc->uc_mcontext.gregs[REG_RIP], sp = uc->uc_mcontext.gregs[REG_RSP];
    uint64_t caller = 0, words[SCAN_WORDS];
    if (pc < text_lo || pc >= text_hi) {
        struct iovec to = {words, sizeof words}, from = {(void *)sp, sizeof words};
        ssize_t got = process_vm_readv(self, &to, 1, &from, 1, 0);
        for (ssize_t i = 0; i < got / 8 && !caller; i++)
            if (words[i] >= text_lo && words[i] < text_hi) caller = words[i];
    }
    uint32_t slot = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (slot < MAX_SAMPLES) samples[slot][0] = pc, samples[slot][1] = caller;
}

__attribute__((constructor)) static void start(void) {
    char exe[4096], line[4352], path[4096], perms[8];
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (n <= 0 || !maps) return;
    exe[n] = 0, self = getpid();
    while (fgets(line, sizeof line, maps)) {
        uint64_t lo, hi;
        if (sscanf(line, "%lx-%lx %7s %*s %*s %*s %4095s", &lo, &hi, perms, path) == 4 &&
            perms[2] == 'x' && !strcmp(path, exe)) text_lo = lo, text_hi = hi;
    }
    fclose(maps);
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tick = {{0, 1000000 / HZ}, {0, 1000000 / HZ}};
    setitimer(ITIMER_PROF, &tick, NULL);
}

/* SIGPROF_OUT (default sigprof.out) with each `%p` replaced by the pid. */
static void out_path(char *path, size_t size) {
    const char *pattern = getenv("SIGPROF_OUT");
    if (!pattern) pattern = "sigprof.out";
    size_t n = 0;
    for (const char *c = pattern; *c && n + 24 < size; c++) {
        if (c[0] == '%' && c[1] == 'p') n += snprintf(path + n, size - n, "%d", (int)self), c++;
        else path[n++] = *c;
    }
    path[n] = 0;
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    if (n_samples == 0) return; /* a wrapper or an idle driver: nothing to say */
    char path[4096];
    out_path(path, sizeof path);
    FILE *f = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!f || !maps) return;
    struct rusage use;
    getrusage(RUSAGE_SELF, &use);
    fprintf(f, "cpu_s %.6f\n", use.ru_utime.tv_sec + use.ru_stime.tv_sec +
                                   (use.ru_utime.tv_usec + use.ru_stime.tv_usec) / 1e6);
    char line[4352]; /* file mappings first, so PCs can be made file-relative */
    while (fgets(line, sizeof line, maps))
        if (strchr(line, '/')) fprintf(f, "map %s", line);
    uint32_t n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    for (uint32_t i = 0; i < n; i++)
        fprintf(f, "%lx %lx\n", samples[i][0], samples[i][1]);
    fclose(f), fclose(maps);
}
