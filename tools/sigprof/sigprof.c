/* LD_PRELOAD sampling profiler: SIGPROF on process CPU time, one line per
 * sample: the interrupted PC and, when that PC is outside the main binary
 * (a libc leaf such as memmove or malloc), the first stack word that points
 * into the main binary's text — the Rust caller. The stack is read with
 * process_vm_readv, which returns an error instead of faulting when the scan
 * runs off a coroutine stack into its guard page.
 *   gcc -O2 -shared -fPIC -o sigprof.so sigprof.c
 *   SIGPROF_OUT=prof.txt LD_PRELOAD=./sigprof.so PROGRAM ... */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
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

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *out = getenv("SIGPROF_OUT");
    FILE *f = fopen(out ? out : "sigprof.out", "w"), *maps = fopen("/proc/self/maps", "r");
    if (!f || !maps) return;
    char line[4352]; /* file mappings first, so PCs can be made file-relative */
    while (fgets(line, sizeof line, maps))
        if (strchr(line, '/')) fprintf(f, "map %s", line);
    uint32_t n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    for (uint32_t i = 0; i < n; i++)
        fprintf(f, "%lx %lx\n", samples[i][0], samples[i][1]);
    fclose(f), fclose(maps);
}
