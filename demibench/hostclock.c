/* Host clocks for the benchmark's ledger: nanosecond reads that
   allocate nothing on the OCaml heap ([@untagged] + [@@noalloc]). */
#include <time.h>
#include <caml/mlvalues.h>

static intnat read_clock(clockid_t id) {
  struct timespec ts;
  clock_gettime(id, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

intnat demibench_mono_ns(value unit) { (void)unit; return read_clock(CLOCK_MONOTONIC); }
value demibench_mono_ns_byte(value unit) { return Val_long(demibench_mono_ns(unit)); }

intnat demibench_cpu_ns(value unit) { (void)unit; return read_clock(CLOCK_PROCESS_CPUTIME_ID); }
value demibench_cpu_ns_byte(value unit) { return Val_long(demibench_cpu_ns(unit)); }
