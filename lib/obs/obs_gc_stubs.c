/* The current domain's major-heap and promoted word counts, computed as
   the runtime's own counters primitive (Gc's [counters]) computes them,
   returned unboxed so the read allocates nothing.  That primitive boxes
   its three results while holding a raw pointer into a fresh tuple, which
   is not GC-safe on OCaml 5.1; and [Gc.quick_stat]'s word counts only
   advance at collections, so a direct major-heap allocation would be
   charged to whichever span happens to be open at the next one. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/domain_state.h>

double obs_major_words(value unit)
{
  return (double)Caml_state->stat_major_words + (double)Caml_state->allocated_words;
}

double obs_promoted_words(value unit)
{
  return (double)Caml_state->stat_promoted_words;
}

value obs_major_words_byte(value unit)
{
  return caml_copy_double(obs_major_words(unit));
}

value obs_promoted_words_byte(value unit)
{
  return caml_copy_double(obs_promoted_words(unit));
}
