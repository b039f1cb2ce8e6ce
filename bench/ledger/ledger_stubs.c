/* Clock and process probes the OCaml standard library lacks: a
   monotonic clock for latencies, wait4 for the resource use of one
   reaped child, and the clock-tick rate /proc/<pid>/stat counts in. */

#include <errno.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

value ledger_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}

/* (pid, exit code or 128 + signal, peak resident KiB, CPU seconds);
   pid 0 when [nohang] and the child is still running */
value ledger_wait4(value vpid, value vnohang)
{
  CAMLparam2(vpid, vnohang);
  CAMLlocal2(res, cpu);
  struct rusage ru;
  int status = 0, code = 0;
  pid_t r;
  do {
    caml_enter_blocking_section();
    r = wait4(Int_val(vpid), &status, Bool_val(vnohang) ? WNOHANG : 0, &ru);
    caml_leave_blocking_section();
  } while (r < 0 && errno == EINTR);
  if (r < 0) caml_failwith("wait4 failed");
  if (r > 0)
    code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  else
    memset(&ru, 0, sizeof ru);
  cpu = caml_copy_double((double)ru.ru_utime.tv_sec + (double)ru.ru_utime.tv_usec * 1e-6 +
                         (double)ru.ru_stime.tv_sec + (double)ru.ru_stime.tv_usec * 1e-6);
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_int(r));
  Store_field(res, 1, Val_int(code));
  Store_field(res, 2, Val_long(ru.ru_maxrss));
  Store_field(res, 3, cpu);
  CAMLreturn(res);
}

value ledger_clk_tck(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_CLK_TCK));
}
