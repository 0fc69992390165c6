/* System calls OCaml's Unix library does not expose. */
#include <sys/resource.h>
#include <unistd.h>
#include <caml/mlvalues.h>

/* getrusage(RUSAGE_CHILDREN): the peak resident set size of the largest
   child process waited for so far, in KiB (Linux reports ru_maxrss in
   KiB). */
value perfbench_children_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0) return Val_long(0);
  return Val_long(ru.ru_maxrss);
}

/* sync(2): write dirty pages back now, so that write-back of earlier work
   does not land inside a timed region. */
value perfbench_sync(value unit)
{
  (void)unit;
  sync();
  return Val_unit;
}
