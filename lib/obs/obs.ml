(* Observability: hierarchical wall-clock spans + counters/gauges/histograms
   with a global registry and five exporters (stderr tree, metrics JSON,
   Chrome trace events, OpenMetrics text, flight-recorder trace dump).

   Disabled-path contract: every instrumentation entry point starts with a
   single branch on [enabled_flag] and returns without allocating, so the
   kernels can stay instrumented permanently.  Counters, gauges and
   histograms carry a generation stamp instead of living in the registry
   from [make]: they join it on first use while enabled, which keeps the
   registry empty (and allocation-free) in disabled runs, and lets [reset]
   invalidate every outstanding handle in O(1) by bumping the generation.

   Domain safety: counter totals, gauge values, the enabled flag and the
   generation stamp are [Atomic]s; registration goes through a mutex.  A
   histogram keeps one single-writer [Hdr.t] shard per domain (created on
   that domain's first observe, under the mutex) and merges them on read.
   The span tree has exactly one owner — the domain that loaded this module
   (the main domain) — and every other domain records spans into a private
   stack selected by [cur_stack]: inside a [Domain_scope] the stack bottoms
   out at the scope's buffer root, outside one it is empty and spans are
   dropped.  A worker never touches the owner's tree; the owner splices the
   buffered subtrees under its innermost open span at [Domain_scope.merge],
   in the caller-chosen (task-index) order, which keeps exports
   deterministic regardless of how many domains actually ran the tasks.
   [reset]/[set_enabled]/the exporters remain owner-domain-only, and must
   not run while scopes are in flight.

   Span-duration histograms are not kept on the side: the exporters build
   each path's [Hdr.t] from the tree's closed occurrences of that path when
   they render, so the span tree is the one record every export reads. *)

let now () = Unix.gettimeofday ()

let enabled_flag = Atomic.make false

let generation = Atomic.make 1

type counter = { c_name : string; c_total : int Atomic.t; c_gen : int Atomic.t }

type gauge = { g_name : string; g_value : float Atomic.t; g_gen : int Atomic.t }

type histogram = {
  h_name : string;
  (* One single-writer shard per domain id; the assoc list only grows (under
     [reg_mutex]) and its cells are immutable, so racy reads during an
     owner-side merge are safe.  Bucket counts read while a worker is mid-
     observe may be one increment stale — exports run after joins, where
     the pool's own synchronization makes them exact. *)
  mutable h_shards : (int * Hdr.t) list;
  h_gen : int Atomic.t;
}

(* Allocation counters for span attribution, all per-domain on OCaml 5 —
   exactly the attribution a span recorded on that domain wants.  Minor
   words come from [Gc.minor_words], which reads the young pointer; major
   and promoted words from two non-allocating reads of the domain's own
   counters (obs_gc_stubs.c); collection counts from [Gc.quick_stat].  Not
   Gc's own [counters]: on OCaml 5.1 a minor collection while it boxes its
   results aborts or corrupts the runtime.  Not quick_stat's word counts
   either: they only advance at collections, so a direct major-heap
   allocation would be charged to whichever span is open at the next one.
   The three word reads allocate nothing, so no collection can fall
   between them. *)
external major_words : unit -> (float[@unboxed])
  = "obs_major_words_byte" "obs_major_words"
[@@noalloc]

external promoted_words : unit -> (float[@unboxed])
  = "obs_promoted_words_byte" "obs_promoted_words"
[@@noalloc]

(* All floats, so OCaml stores the record flat: two of them per span
   node cost 12 words, no boxes. *)
type gc_snap = {
  gs_minor : float;
  gs_promoted : float;
  gs_major : float;
  gs_mincol : float;
  gs_majcol : float;
}

let gc_snap () =
  let gs_minor = Gc.minor_words () in
  let gs_major = major_words () in
  let gs_promoted = promoted_words () in
  let q = Gc.quick_stat () in
  {
    gs_minor;
    gs_promoted;
    gs_major;
    gs_mincol = float_of_int q.Gc.minor_collections;
    gs_majcol = float_of_int q.Gc.major_collections;
  }

let allocated_words () =
  let minor = Gc.minor_words () in
  let major = major_words () in
  minor +. major -. promoted_words ()

type node = {
  s_name : string;
  s_args : (string * string) list;
  s_t0 : float;
  s_domain : int;  (* domain that entered the span; exits elsewhere are dropped *)
  mutable s_dur : float;  (* negative while the span is open *)
  s_gc0 : gc_snap;  (* at enter *)
  mutable s_gc1 : gc_snap;  (* at exit; valid once s_dur >= 0 *)
  mutable s_children : node list;  (* reverse chronological *)
  mutable s_counters : (counter * int ref) list;  (* own deltas *)
  s_gen : int;
}

let make_node ~name ~args =
  let q = gc_snap () in
  {
    s_name = name;
    s_args = args;
    s_t0 = now ();
    s_domain = (Domain.self () :> int);
    s_dur = -1.;
    s_gc0 = q;
    s_gc1 = q;
    s_children = [];
    s_counters = [];
    s_gen = Atomic.get generation;
  }

let make_root () = make_node ~name:"" ~args:[]

let root_node = ref (make_root ())

(* The span tree's owner: the domain that initialized this module. *)
let owner = Domain.self ()

(* Innermost open span first; the root pseudo-span is always at the bottom
   (on the owner domain; inside a [Domain_scope] the scope's buffer root
   plays that role, and outside one a worker's stack is empty). *)
let owner_stack = ref [ !root_node ]

let worker_stack : node list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let cur_stack () =
  if Domain.self () = owner then owner_stack else Domain.DLS.get worker_stack

let epoch = ref (now ())

let reg_mutex = Mutex.create ()

let counters_reg : counter list ref = ref []

let gauges_reg : gauge list ref = ref []

let histograms_reg : histogram list ref = ref []

let enabled () = Atomic.get enabled_flag

module Counter = struct
  type t = counter

  let make name = { c_name = name; c_total = Atomic.make 0; c_gen = Atomic.make 0 }

  (* Registration is double-checked under [reg_mutex] so two domains racing
     on first use register the counter exactly once.  [c_total] is zeroed
     before the generation stamp is published, so a third domain that sees
     the fresh stamp always adds on top of the reset total. *)
  let touch c =
    if Atomic.get c.c_gen <> Atomic.get generation then begin
      Mutex.lock reg_mutex;
      let gen = Atomic.get generation in
      if Atomic.get c.c_gen <> gen then begin
        Atomic.set c.c_total 0;
        Atomic.set c.c_gen gen;
        counters_reg := c :: !counters_reg
      end;
      Mutex.unlock reg_mutex
    end

  let add c n =
    if Atomic.get enabled_flag then begin
      touch c;
      ignore (Atomic.fetch_and_add c.c_total n);
      match !(cur_stack ()) with
      | top :: _ :: _ -> (
        (* top is a real span (the root is below it): attribute the delta *)
        match List.assq_opt c top.s_counters with
        | Some r -> r := !r + n
        | None -> top.s_counters <- (c, ref n) :: top.s_counters)
      | _ -> ()
    end

  let incr c = add c 1

  let value c =
    if Atomic.get c.c_gen = Atomic.get generation then Atomic.get c.c_total else 0
end

module Gauge = struct
  type t = gauge

  let make name = { g_name = name; g_value = Atomic.make 0.; g_gen = Atomic.make 0 }

  let set g v =
    if Atomic.get enabled_flag then begin
      (if Atomic.get g.g_gen <> Atomic.get generation then begin
         Mutex.lock reg_mutex;
         let gen = Atomic.get generation in
         if Atomic.get g.g_gen <> gen then begin
           Atomic.set g.g_value 0.;
           Atomic.set g.g_gen gen;
           gauges_reg := g :: !gauges_reg
         end;
         Mutex.unlock reg_mutex
       end);
      Atomic.set g.g_value v
    end

  (* Guard before converting: [float_of_int] boxes, and the disabled path
     must stay allocation-free. *)
  let set_int g v = if Atomic.get enabled_flag then set g (float_of_int v)

  let value g =
    if Atomic.get g.g_gen = Atomic.get generation then Atomic.get g.g_value else 0.
end

module Histogram = struct
  type t = histogram

  let make name = { h_name = name; h_shards = []; h_gen = Atomic.make 0 }

  let touch h =
    if Atomic.get h.h_gen <> Atomic.get generation then begin
      Mutex.lock reg_mutex;
      let gen = Atomic.get generation in
      if Atomic.get h.h_gen <> gen then begin
        h.h_shards <- [];
        Atomic.set h.h_gen gen;
        histograms_reg := h :: !histograms_reg
      end;
      Mutex.unlock reg_mutex
    end

  let shard h =
    let did = (Domain.self () :> int) in
    match List.assoc_opt did h.h_shards with
    | Some s -> s
    | None ->
      Mutex.lock reg_mutex;
      let s =
        match List.assoc_opt did h.h_shards with
        | Some s -> s
        | None ->
          let s = Hdr.create () in
          h.h_shards <- (did, s) :: h.h_shards;
          s
      in
      Mutex.unlock reg_mutex;
      s

  let observe h v =
    if Atomic.get enabled_flag then begin
      touch h;
      Hdr.observe (shard h) v
    end

  (* Fresh merged view of all shards (empty when the handle is stale). *)
  let snapshot h =
    let m = Hdr.create () in
    if Atomic.get h.h_gen = Atomic.get generation then
      List.iter (fun (_, s) -> Hdr.merge ~into:m s) h.h_shards;
    m

  let merge h ~into =
    if Atomic.get h.h_gen = Atomic.get generation then
      List.iter (fun (_, s) -> Hdr.merge ~into s) h.h_shards

  let count h =
    if Atomic.get h.h_gen = Atomic.get generation then
      List.fold_left (fun acc (_, s) -> acc + Hdr.count s) 0 h.h_shards
    else 0

  let sum h =
    if Atomic.get h.h_gen = Atomic.get generation then
      List.fold_left (fun acc (_, s) -> acc + Hdr.sum s) 0 h.h_shards
    else 0

  let quantile h q = Hdr.quantile (snapshot h) q
end

(* ------------------------------------------------------------------ *)
(* Peak major-heap tracking                                           *)

(* High-water mark of [Gc.quick_stat].heap_words, maintained by a GC alarm
   that fires at the end of every major collection while the layer is
   enabled (plus one seed sample when collection starts, so the gauge is
   never absent from an enabled export), and additionally sampled every
   [peak_sample_every]-th span close — a major heap can balloon and shrink
   back between two major cycles, which the alarm alone never sees.  The
   compare-then-set pair is not atomic; a lost race between two domains
   only under-reports the high-water mark by one sample, which the next
   sample refreshes. *)
let peak_heap_gauge = Gauge.make "gc.peak_major_heap_words"

let peak_samples_gauge = Gauge.make "obs.peak_heap_samples"

let gc_alarm : Gc.alarm option ref = ref None

let sample_peak_heap () =
  if Atomic.get enabled_flag then begin
    let hw = float_of_int (Gc.quick_stat ()).Gc.heap_words in
    if Gauge.value peak_heap_gauge < hw then Gauge.set peak_heap_gauge hw
  end

(* Process-global close count (never reset: the modulus only needs to keep
   ticking, and resetting it would make sampling phase depend on test
   order). *)
let span_closes = Atomic.make 0

let peak_sample_every = 32

(* Dropped cross-domain [Span.exit]s (a span exited on a different domain
   than entered it — a bug in the instrumented code, surfaced instead of
   corrupting the exiting domain's span stack). *)
let cross_domain_exits = Counter.make "obs.cross_domain_exits"

(* ------------------------------------------------------------------ *)
(* Shared JSON/formatting helpers (used by several exporters)         *)

let json_escape = Json_min.escape

let json_float f =
  (* %.6f keeps the output plain (no exponents) and precise to the µs. *)
  if Float.is_finite f then Printf.sprintf "%.6f" f else "0"

(* Word counts are integral in practice; keep them exponent-free too. *)
let json_words f = if Float.is_finite f then Printf.sprintf "%.0f" f else "0"

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* One span as a Chrome trace event.  [ev_args] render as JSON strings,
   [ev_counters] (a span's own counter deltas) as numbers.  Mutable so the
   flight recorder can recycle its preallocated ring of them. *)
type trace_event = {
  mutable ev_name : string;
  mutable ev_args : (string * string) list;
  ev_counters : (string * int) list;
  mutable ev_t0 : float;
  mutable ev_dur : float;
  mutable ev_tid : int;
}

(* The one Chrome trace-event renderer, behind both [--trace] and the
   flight-recorder dump: a process-name record, then one complete
   ("ph":"X") event per span, in µs since the obs epoch. *)
let chrome_trace ~process ~cat events =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{ \"traceEvents\": [\n";
  add
    "  { \"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"args\": { \
     \"name\": \"%s\" } }"
    (json_escape process);
  List.iter
    (fun ev ->
      add
        ",\n  { \"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %s, \"dur\": \
         %s, \"pid\": 1, \"tid\": %d"
        (json_escape ev.ev_name) cat
        (json_float ((ev.ev_t0 -. !epoch) *. 1e6))
        (json_float (ev.ev_dur *. 1e6))
        ev.ev_tid;
      if ev.ev_args <> [] || ev.ev_counters <> [] then begin
        let sep = ref "" in
        add ", \"args\": { ";
        List.iter
          (fun (k, v) ->
            add "%s\"%s\": \"%s\"" !sep (json_escape k) (json_escape v);
            sep := ", ")
          ev.ev_args;
        List.iter
          (fun (k, v) ->
            add "%s\"%s\": %d" !sep (json_escape k) v;
            sep := ", ")
          ev.ev_counters;
        add " }"
      end;
      add " }")
    events;
  add "\n] }\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                    *)

module Flight_recorder = struct
  (* Bounded ring of the last N completed spans, written at span close
     from any domain and dumped as Chrome trace JSON on demand, at normal
     exit, or from a fatal-signal handler — so a crashed or killed run
     leaves a readable tail of what it was doing.  Cells are preallocated
     at [configure] and recycled by mutation: recording costs one atomic
     fetch-and-add plus five field writes, no allocation.  The cursor is
     atomic so concurrent closes on several domains never write the same
     slot; a dump racing an in-flight write can see one half-updated cell,
     which is acceptable for a post-mortem artifact (and impossible in the
     dump-on-exit paths, which run after all domains joined).  [Obs.reset]
     deliberately does NOT clear the ring: it is a process-lifetime tail,
     not a per-run metric. *)

  let cells : trace_event array ref = ref [||]

  let cursor = Atomic.make 0  (* total spans ever recorded *)

  let dump_path : string option ref = ref None

  let hooks_installed = ref false

  let capacity () = Array.length !cells

  let active () = Array.length !cells > 0

  let recorded () = Atomic.get cursor

  let configure ~capacity =
    let capacity = max 0 capacity in
    cells :=
      Array.init capacity (fun _ ->
          { ev_name = ""; ev_args = []; ev_counters = []; ev_t0 = 0.; ev_dur = 0.; ev_tid = 0 });
    Atomic.set cursor 0

  let set_dump_path p = dump_path := p

  let record ~name ~args ~t0 ~dur =
    let cs = !cells in
    let cap = Array.length cs in
    if cap > 0 then begin
      let i = Atomic.fetch_and_add cursor 1 in
      let c = cs.(i mod cap) in
      c.ev_name <- name;
      c.ev_args <- args;
      c.ev_t0 <- t0;
      c.ev_dur <- dur;
      c.ev_tid <- (Domain.self () :> int)
    end

  (* Oldest to newest, tid = recording domain id. *)
  let dump_json () =
    let cs = !cells in
    let cap = Array.length cs in
    let total = Atomic.get cursor in
    let n = min total cap in
    let first = total - n in
    chrome_trace
      ~process:(Printf.sprintf "maxtruss flight recorder (last %d spans)" n)
      ~cat:"flight"
      (List.init n (fun j -> cs.((first + j) mod cap)))

  let dump path = write_file path (dump_json ())

  let dump_if_configured () =
    match !dump_path with
    | Some p when active () && Atomic.get cursor > 0 -> (
      try dump p with Sys_error _ -> ())
    | _ -> ()

  (* at_exit covers normal termination (including [exit 1] error paths);
     the signal handlers cover SIGTERM/SIGINT/SIGQUIT — after dumping they
     restore the default disposition and re-deliver, so the process still
     dies with the conventional signal status and [at_exit] does not run a
     second dump.  SIGUSR1 is different in kind: it is the live-inspection
     hook — dump and keep running — so an operator can look at a serving
     daemon's span tail without killing it.  Installed once per process,
     only on explicit request (never as a side effect of enabling the obs
     layer). *)
  let install_crash_hooks () =
    if not !hooks_installed then begin
      hooks_installed := true;
      at_exit dump_if_configured;
      let on_signal signum _ =
        dump_if_configured ();
        Sys.set_signal signum Sys.Signal_default;
        Unix.kill (Unix.getpid ()) signum
      in
      List.iter
        (fun s ->
          try Sys.set_signal s (Sys.Signal_handle (on_signal s))
          with Invalid_argument _ | Sys_error _ -> ())
        [ Sys.sigterm; Sys.sigint; Sys.sigquit ];
      try Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> dump_if_configured ()))
      with Invalid_argument _ | Sys_error _ -> ()
    end
end

(* ------------------------------------------------------------------ *)
(* Wide-event log                                                     *)

module Events = struct
  (* One structured JSONL line per served request, written to a file the
     daemon opens at startup.  Complements the aggregated registry: the
     histograms answer "what is p99", the event log answers "which request
     was slow, against which epoch, at which batch position".  Every
     request is written; line writes are serialized (one [output_string] +
     flush per line, so a killed process leaves whole lines).

     Overhead contract: while no sink is configured, [emit_request] costs
     one ref load and allocates nothing — same bar as the disabled obs
     fast path, enforced by the same zero-alloc test. *)

  let sink : out_channel option ref = ref None

  let write_mutex = Mutex.create ()

  let written_ctr = Atomic.make 0

  let active () = Option.is_some !sink

  let written () = Atomic.get written_ctr

  let close () =
    match !sink with
    | None -> ()
    | Some oc -> (
      sink := None;
      try
        flush oc;
        close_out oc
      with Sys_error _ -> ())

  let configure path =
    close ();
    let oc = open_out path in
    Atomic.set written_ctr 0;
    (* Self-describing header so a bare .jsonl file identifies its schema. *)
    output_string oc "{\"event\":\"start\",\"schema\":\"maxtruss-serve-events\",\"version\":2}\n";
    flush oc;
    sink := Some oc

  let emit_request ~op ~id ~gen ~epoch_age ~queue_ns ~exec_ns ~batch_size ~batch_pos ~ok =
    match !sink with
    | None -> ()
    | Some oc ->
      let b = Buffer.create 192 in
      Printf.bprintf b "{\"event\":\"request\",\"ts_ns\":%.0f,\"op\":\"%s\""
        (now () *. 1e9) (json_escape op);
      (match id with None -> () | Some v -> Printf.bprintf b ",\"id\":%s" v);
      Printf.bprintf b
        ",\"gen\":%d,\"epoch_age\":%d,\"queue_ns\":%d,\"exec_ns\":%d,\"batch_size\":%d,\"batch_pos\":%d,\"ok\":%b}\n"
        gen epoch_age queue_ns exec_ns batch_size batch_pos ok;
      Mutex.lock write_mutex;
      (try
         output_string oc (Buffer.contents b);
         flush oc
       with Sys_error _ -> ());
      Mutex.unlock write_mutex;
      Atomic.incr written_ctr
end

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)

(* Close [n] if still open, stamping its duration and exit GC snapshot;
   every real close also lands in the flight recorder and ticks the
   sampled peak-heap probe. *)
let close_node ~t ~q n =
  if n.s_dur < 0. then begin
    n.s_dur <- t -. n.s_t0;
    n.s_gc1 <- q;
    if n.s_name <> "" then begin
      Flight_recorder.record ~name:n.s_name ~args:n.s_args ~t0:n.s_t0 ~dur:n.s_dur;
      let closed = Atomic.fetch_and_add span_closes 1 + 1 in
      if closed mod peak_sample_every = 0 then begin
        sample_peak_heap ();
        Gauge.set peak_samples_gauge (float_of_int (closed / peak_sample_every))
      end
    end
  end

module Span = struct
  type t = node option

  let none = None

  let enter ?(args = []) name =
    if not (Atomic.get enabled_flag) then None
    else begin
      let st = cur_stack () in
      match !st with
      | [] -> None  (* a worker outside any Domain_scope: drop the span *)
      | top :: _ as stack ->
        let n = make_node ~name ~args in
        top.s_children <- n :: top.s_children;
        st := n :: stack;
        Some n
    end

  let exit sp =
    match sp with
    | None -> ()
    | Some n ->
      if (Domain.self () :> int) <> n.s_domain then
        (* Exiting on a foreign domain would walk (and pop!) that domain's
           own stack — drop the exit and surface the bug as a counter; the
           owning domain's scope drain will close the span. *)
        Counter.incr cross_domain_exits
      else begin
        let st = cur_stack () in
        if n.s_gen = Atomic.get generation && List.memq n !st then begin
          let t = now () in
          let q = gc_snap () in
          (* Close forgotten open descendants along the way. *)
          let rec pop () =
            match !st with
            | top :: rest ->
              close_node ~t ~q top;
              st := rest;
              if top != n then pop ()
            | [] -> ()
          in
          pop ()
        end
      end

  let with_ ?args name f =
    if not (Atomic.get enabled_flag) then f ()
    else begin
      let sp = enter ?args name in
      match f () with
      | x ->
        exit sp;
        x
      | exception e ->
        (* Keep the original raise site: [raise e] would restart the
           backtrace here, in the instrumentation layer. *)
        let bt = Printexc.get_raw_backtrace () in
        exit sp;
        Printexc.raise_with_backtrace e bt
    end
end

(* ------------------------------------------------------------------ *)
(* Off-owner span buffers                                             *)

module Domain_scope = struct
  (* A buffer root: spans recorded while the scope is active hang off it,
     and [merge] splices them under the owner's innermost open span.  The
     buffer root itself never appears in exports. *)
  type t = node option

  let none = None

  let create () =
    if not (Atomic.get enabled_flag) then None
    else Some (make_node ~name:"" ~args:[])

  (* Pop and close everything the task left open above the scope root. *)
  let drain_above st stop_at =
    match !st with
    | [ n ] when n == stop_at -> ()
    | _ ->
      let t = now () in
      let q = gc_snap () in
      let rec pop () =
        match !st with
        | top :: rest when top != stop_at ->
          close_node ~t ~q top;
          st := rest;
          pop ()
        | _ -> ()
      in
      pop ()

  let run sc f =
    match sc with
    | None -> f ()
    | Some root ->
      let st = cur_stack () in
      let saved = !st in
      st := [ root ];
      let restore () =
        drain_above st root;
        st := saved
      in
      (match f () with
      | v ->
        restore ();
        v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        restore ();
        Printexc.raise_with_backtrace e bt)

  let merge sc =
    match sc with
    | None -> ()
    | Some root ->
      if root.s_gen = Atomic.get generation && root.s_children <> [] then begin
        match !(cur_stack ()) with
        | top :: _ ->
          (* Both child lists are reverse chronological; prepending keeps
             successive merges in call order once reversed, i.e. merged
             subtrees read in task-index order. *)
          top.s_children <- root.s_children @ top.s_children
        | [] -> ()
      end
end

let reset () =
  ignore (Atomic.fetch_and_add generation 1);
  Mutex.lock reg_mutex;
  counters_reg := [];
  gauges_reg := [];
  histograms_reg := [];
  Mutex.unlock reg_mutex;
  let r = make_root () in
  root_node := r;
  owner_stack := [ r ];
  epoch := now ();
  sample_peak_heap ()

let set_enabled b =
  Atomic.set enabled_flag b;
  (match (b, !gc_alarm) with
  | true, None -> gc_alarm := Some (Gc.create_alarm sample_peak_heap)
  | false, Some a ->
    Gc.delete_alarm a;
    gc_alarm := None
  | _ -> ());
  sample_peak_heap ();
  (* Fresh registry + no open spans: restart the epoch so trace timestamps
     start at the moment collection was switched on. *)
  if b && (!root_node).s_children = [] && List.length !owner_stack = 1 then epoch := now ()

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)

type span_stat = {
  path : string;
  count : int;
  total_s : float;
  self_s : float;
  p50_s : float;
  p90_s : float;
  p99_s : float;
  alloc_w : float;
  self_alloc_w : float;
  promoted_w : float;
  minor_gcs : int;
  major_gcs : int;
  counters : (string * int) list;
}

let node_dur ~t n = if n.s_dur >= 0. then n.s_dur else t -. n.s_t0

let dur_ns dur_s = int_of_float (dur_s *. 1e9)

(* (allocated words, promoted words, minor gcs, major gcs) over the span's
   lifetime; allocated = minor + major - promoted, which matches
   [Gc.allocated_bytes] up to the word size.  Open spans are measured up to
   the [q] snapshot. *)
let node_gc ~q n =
  let q0 = n.s_gc0 and q1 = if n.s_dur >= 0. then n.s_gc1 else q in
  ( q1.gs_minor -. q0.gs_minor
    +. (q1.gs_major -. q0.gs_major)
    -. (q1.gs_promoted -. q0.gs_promoted),
    q1.gs_promoted -. q0.gs_promoted,
    int_of_float (q1.gs_mincol -. q0.gs_mincol),
    int_of_float (q1.gs_majcol -. q0.gs_majcol) )

let node_alloc ~q n =
  let a, _, _, _ = node_gc ~q n in
  a

let rendered_name n =
  match n.s_args with
  | [] -> n.s_name
  | args ->
    n.s_name ^ "("
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) args)
    ^ ")"

(* Group a chronological sibling list by rendered name, preserving
   first-appearance order; each group keeps its nodes chronological. *)
let group_siblings nodes =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun n ->
      let key = rendered_name n in
      match Hashtbl.find_opt tbl key with
      | Some l -> l := n :: !l
      | None ->
        Hashtbl.replace tbl key (ref [ n ]);
        order := key :: !order)
    nodes;
  List.rev_map (fun key -> (key, List.rev !(Hashtbl.find tbl key))) !order

(* The one walk every span export reads: the tree grouped by rendered path,
   in preorder.  Each row carries its [span_stat] and the duration
   histogram (ns) of the path's closed occurrences — [None] while none has
   closed, in which case the row's quantiles come from all occurrences,
   open ones measured up to now. *)
let span_rows () =
  let t = now () in
  let q = gc_snap () in
  let hist keep ns =
    let h = Hdr.create () in
    List.iter (fun n -> if keep n then Hdr.observe h (dur_ns (node_dur ~t n))) ns;
    h
  in
  let rec walk prefix acc groups =
    List.fold_left
      (fun acc (key, ns) ->
        let path = if prefix = "" then key else prefix ^ "/" ^ key in
        let total = List.fold_left (fun s n -> s +. node_dur ~t n) 0. ns in
        let alloc, promoted, min_gcs, maj_gcs =
          List.fold_left
            (fun (a, p, mn, mj) n ->
              let na, np, nmn, nmj = node_gc ~q n in
              (a +. na, p +. np, mn + nmn, mj + nmj))
            (0., 0., 0, 0) ns
        in
        let children = List.concat_map (fun n -> List.rev n.s_children) ns in
        let child_total = List.fold_left (fun s n -> s +. node_dur ~t n) 0. children in
        let child_alloc = List.fold_left (fun s n -> s +. node_alloc ~q n) 0. children in
        let ctr_order = ref [] in
        let ctr_tbl = Hashtbl.create 8 in
        List.iter
          (fun n ->
            List.iter
              (fun (c, r) ->
                match Hashtbl.find_opt ctr_tbl c.c_name with
                | Some cell -> cell := !cell + !r
                | None ->
                  Hashtbl.replace ctr_tbl c.c_name (ref !r);
                  ctr_order := c.c_name :: !ctr_order)
              (List.rev n.s_counters))
          ns;
        let ctrs =
          List.rev_map (fun name -> (name, !(Hashtbl.find ctr_tbl name))) !ctr_order
        in
        let closed =
          let h = hist (fun n -> n.s_dur >= 0.) ns in
          if Hdr.count h = 0 then None else Some h
        in
        let qh = match closed with Some h -> h | None -> hist (fun _ -> true) ns in
        let quantile p = float_of_int (Hdr.quantile qh p) /. 1e9 in
        let row =
          {
            path;
            count = List.length ns;
            total_s = total;
            self_s = total -. child_total;
            p50_s = quantile 0.5;
            p90_s = quantile 0.9;
            p99_s = quantile 0.99;
            alloc_w = alloc;
            self_alloc_w = alloc -. child_alloc;
            promoted_w = promoted;
            minor_gcs = min_gcs;
            major_gcs = maj_gcs;
            counters = ctrs;
          }
        in
        walk path ((row, closed) :: acc) (group_siblings children))
      acc groups
  in
  List.rev (walk "" [] (group_siblings (List.rev (!root_node).s_children)))

let span_stats () = List.map fst (span_rows ())

(* Name order rather than registration order: concurrent first-touches
   reach the registry in whatever order the domains interleave, so sorting
   is what keeps two runs of the same workload comparable. *)
let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

(* Per-path histograms of closed spans, in path order. *)
let histograms_of_rows rows =
  by_name (List.filter_map (fun (s, h) -> Option.map (fun h -> (s.path, h)) h) rows)

let span_histograms () = histograms_of_rows (span_rows ())

let counters () =
  Mutex.lock reg_mutex;
  let cs = !counters_reg in
  Mutex.unlock reg_mutex;
  by_name (List.map (fun c -> (c.c_name, Atomic.get c.c_total)) cs)

let gauges () =
  Mutex.lock reg_mutex;
  let gs = !gauges_reg in
  Mutex.unlock reg_mutex;
  by_name (List.map (fun g -> (g.g_name, Atomic.get g.g_value)) gs)

let histograms () =
  Mutex.lock reg_mutex;
  let hs = !histograms_reg in
  Mutex.unlock reg_mutex;
  by_name (List.map (fun h -> (h.h_name, Histogram.snapshot h)) hs)

(* ------------------------------------------------------------------ *)
(* Exporters                                                          *)

(* Compact word-count rendering for the report's allocation columns. *)
let fmt_words w =
  let a = Float.abs w in
  if a >= 1e9 then Printf.sprintf "%.1fGw" (w /. 1e9)
  else if a >= 1e6 then Printf.sprintf "%.1fMw" (w /. 1e6)
  else if a >= 1e3 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.0fw" w

(* Compact duration rendering for the quantile columns (spans range from
   microseconds to minutes; a fixed %.4fs column flattens the fast ones). *)
let fmt_dur s =
  let a = Float.abs s in
  if a >= 1. then Printf.sprintf "%.3fs" s
  else if a >= 1e-3 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.0fus" (s *. 1e6)

let report oc =
  let stats = span_stats () in
  if stats <> [] then begin
    Printf.fprintf oc
      "[obs] span tree (count, inclusive, exclusive, p50/p90/p99, alloc, self-alloc, \
       gcs):\n";
    List.iter
      (fun s ->
        let depth = ref 0 in
        String.iter (fun c -> if c = '/' then incr depth) s.path;
        let leaf =
          match String.rindex_opt s.path '/' with
          | Some i -> String.sub s.path (i + 1) (String.length s.path - i - 1)
          | None -> s.path
        in
        Printf.fprintf oc "  %s%-*s %6dx %10.4fs %10.4fs %8s %8s %8s %9s %9s %4d/%d"
          (String.make (2 * !depth) ' ')
          (max 1 (40 - (2 * !depth)))
          leaf s.count s.total_s s.self_s (fmt_dur s.p50_s) (fmt_dur s.p90_s)
          (fmt_dur s.p99_s) (fmt_words s.alloc_w) (fmt_words s.self_alloc_w)
          s.minor_gcs s.major_gcs;
        if s.counters <> [] then begin
          Printf.fprintf oc "  {%s}"
            (String.concat ", "
               (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) s.counters))
        end;
        Printf.fprintf oc "\n")
      stats
  end;
  let cs = counters () in
  if cs <> [] then begin
    Printf.fprintf oc "[obs] counters:\n";
    List.iter (fun (k, v) -> Printf.fprintf oc "  %-46s %d\n" k v) cs
  end;
  let gs = gauges () in
  if gs <> [] then begin
    Printf.fprintf oc "[obs] gauges:\n";
    List.iter (fun (k, v) -> Printf.fprintf oc "  %-46s %g\n" k v) gs
  end;
  let hs = histograms () in
  if hs <> [] then begin
    Printf.fprintf oc "[obs] histograms (count, p50/p90/p99, sum):\n";
    List.iter
      (fun (k, h) ->
        Printf.fprintf oc "  %-46s %6d  %d/%d/%d  %d\n" k (Hdr.count h)
          (Hdr.quantile h 0.5) (Hdr.quantile h 0.9) (Hdr.quantile h 0.99) (Hdr.sum h))
      hs
  end;
  flush oc

(* One histogram as a JSON object: exact count/sum/min/max, quantized
   quantiles, and the non-empty cumulative buckets as [bound, count]
   pairs — the same numbers the OpenMetrics exposition renders. *)
let hist_json h =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{ \"count\": %d, \"sum\": %d, \"min\": %d, \"max\": %d" (Hdr.count h)
    (Hdr.sum h) (Hdr.min_value h) (Hdr.max_value_seen h);
  add ", \"p50\": %d, \"p90\": %d, \"p99\": %d" (Hdr.quantile h 0.5)
    (Hdr.quantile h 0.9) (Hdr.quantile h 0.99);
  add ", \"buckets\": [";
  List.iteri
    (fun i (ub, cum) -> add "%s[%d, %d]" (if i = 0 then "" else ", ") ub cum)
    (Hdr.buckets h);
  add "] }";
  Buffer.contents buf

let metrics_json () =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* A JSON object, one ["key": value] line per entry at [indent]. *)
  let obj indent render entries =
    add "{";
    List.iteri
      (fun i (k, v) ->
        add "%s\n%s\"%s\": %s" (if i = 0 then "" else ",") indent (json_escape k) (render v))
      entries;
    add "%s%s}" (if entries = [] then "" else "\n") (String.sub indent 2 (String.length indent - 2))
  in
  add "{\n";
  add "  \"schema\": \"maxtruss-obs-metrics\",\n";
  add "  \"version\": 3,\n";
  add "  \"enabled\": %b,\n" (Atomic.get enabled_flag);
  let rows = span_rows () in
  add "  \"spans\": [";
  List.iteri
    (fun i (s, _) ->
      add "%s\n    { \"path\": \"%s\", \"count\": %d, \"total_s\": %s, \"self_s\": %s"
        (if i = 0 then "" else ",")
        (json_escape s.path) s.count (json_float s.total_s) (json_float s.self_s);
      add ", \"p50_s\": %s, \"p90_s\": %s, \"p99_s\": %s" (json_float s.p50_s)
        (json_float s.p90_s) (json_float s.p99_s);
      add ", \"alloc_w\": %s, \"self_alloc_w\": %s, \"promoted_w\": %s"
        (json_words s.alloc_w) (json_words s.self_alloc_w) (json_words s.promoted_w);
      add ", \"minor_gcs\": %d, \"major_gcs\": %d" s.minor_gcs s.major_gcs;
      if s.counters <> [] then begin
        add ", \"counters\": { ";
        List.iteri
          (fun j (k, v) ->
            add "%s\"%s\": %d" (if j = 0 then "" else ", ") (json_escape k) v)
          s.counters;
        add " }"
      end;
      add " }")
    rows;
  add "%s  ],\n" (if rows = [] then "" else "\n");
  add "  \"counters\": ";
  obj "    " string_of_int (counters ());
  add ",\n  \"gauges\": ";
  obj "    " json_float (gauges ());
  (* Optional histograms section — "named" are registered [Obs.Histogram]s
     (values in their own unit), "spans" the per-path duration histograms
     (nanoseconds).  Omitted entirely when both are empty, so
     disabled-mode exports are untouched. *)
  let named = histograms () in
  let spans_h = histograms_of_rows rows in
  if named <> [] || spans_h <> [] then begin
    add ",\n  \"histograms\": {\n    \"named\": ";
    obj "      " hist_json named;
    add ",\n    \"spans\": ";
    obj "      " hist_json spans_h;
    add "\n  }"
  end;
  add "\n}\n";
  Buffer.contents buf

let write_metrics path = write_file path (metrics_json ())

let chrome_trace_json () =
  let t = now () in
  let rec walk acc n =
    let ev =
      {
        ev_name = n.s_name;
        ev_args = n.s_args;
        ev_counters = List.map (fun (c, r) -> (c.c_name, !r)) n.s_counters;
        ev_t0 = n.s_t0;
        ev_dur = node_dur ~t n;
        ev_tid = 1;
      }
    in
    List.fold_left walk (ev :: acc) (List.rev n.s_children)
  in
  chrome_trace ~process:"maxtruss" ~cat:"maxtruss"
    (List.rev (List.fold_left walk [] (List.rev (!root_node).s_children)))

let write_chrome_trace path = write_file path (chrome_trace_json ())

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition                                             *)

module Openmetrics = struct
  (* Prometheus/OpenMetrics text format: every registered counter becomes
     a [maxtruss_<name>] counter family (sample suffix `_total`), every
     gauge a gauge family, every registered histogram and every span path
     a histogram family with cumulative `_bucket{le=...}` series plus
     `_sum`/`_count` — span durations share the single family
     [maxtruss_span_duration_ns] distinguished by a `path` label, which is
     the shape a scraper can aggregate across.  Output ends with `# EOF`
     per the OpenMetrics spec.  Everything is emitted in name order, so
     two exports of the same run are byte-comparable. *)

  let sanitize name =
    String.mapi
      (fun i c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> c
        | '0' .. '9' when i > 0 -> c
        | _ -> '_')
      name

  let family name = "maxtruss_" ^ sanitize name

  let label_escape v =
    let buf = Buffer.create (String.length v + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      v;
    Buffer.contents buf

  let fmt_gauge v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else json_float v

  (* Registered names of the form [base{k=v,...}] become one labelled
     series of the family [base]: ["request_duration_ns{op=mutate}"]
     renders as [maxtruss_request_duration_ns{op="mutate"}].  Values may
     be bare or double-quoted; a name whose brace section doesn't parse is
     treated as unlabelled (and the braces sanitized away). *)
  let split_labels name =
    let n = String.length name in
    match String.index_opt name '{' with
    | Some i when i > 0 && n > i + 1 && name.[n - 1] = '}' ->
      let base = String.sub name 0 i in
      let parts = String.split_on_char ',' (String.sub name (i + 1) (n - i - 2)) in
      let render part =
        match String.index_opt part '=' with
        | Some j when j > 0 ->
          let k = String.trim (String.sub part 0 j) in
          let v = String.trim (String.sub part (j + 1) (String.length part - j - 1)) in
          let v =
            let lv = String.length v in
            if lv >= 2 && v.[0] = '"' && v.[lv - 1] = '"' then String.sub v 1 (lv - 2) else v
          in
          if k = "" then None else Some (sanitize k ^ "=\"" ^ label_escape v ^ "\"")
        | _ -> None
      in
      let rendered = List.filter_map render parts in
      if List.length rendered = List.length parts && rendered <> [] then
        (base, String.concat "," rendered)
      else (name, "")
    | _ -> (name, "")

  (* Regroup one section's entries by (family, labels) so every family
     gets exactly one # TYPE line even when labelled and unlabelled
     variants interleave in raw-name order. *)
  let grouped entries =
    List.map
      (fun (name, v) ->
        let base, labels = split_labels name in
        (family base, labels, v))
      entries
    |> List.stable_sort (fun (f1, l1, _) (f2, l2, _) ->
           match String.compare f1 f2 with 0 -> String.compare l1 l2 | c -> c)

  (* One histogram's series under [fam], with [labels] prepended to each
     sample's label set (already rendered, e.g. {|path="a/b"|}). *)
  let add_hist_series buf ~fam ~labels h =
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let with_le le =
      if labels = "" then Printf.sprintf "{le=\"%s\"}" le
      else Printf.sprintf "{%s,le=\"%s\"}" labels le
    in
    let plain = if labels = "" then "" else "{" ^ labels ^ "}" in
    List.iter
      (fun (ub, cum) -> add "%s_bucket%s %d\n" fam (with_le (string_of_int ub)) cum)
      (Hdr.buckets h);
    add "%s_bucket%s %d\n" fam (with_le "+Inf") (Hdr.count h);
    add "%s_sum%s %d\n" fam plain (Hdr.sum h);
    add "%s_count%s %d\n" fam plain (Hdr.count h)

  let render () =
    let buf = Buffer.create 4096 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let last_fam = ref "" in
    let type_line fam kind =
      if fam <> !last_fam then begin
        add "# TYPE %s %s\n" fam kind;
        last_fam := fam
      end
    in
    List.iter
      (fun (fam, labels, v) ->
        type_line fam "counter";
        let plain = if labels = "" then "" else "{" ^ labels ^ "}" in
        add "%s_total%s %d\n" fam plain v)
      (grouped (counters ()));
    last_fam := "";
    List.iter
      (fun (fam, labels, v) ->
        type_line fam "gauge";
        let plain = if labels = "" then "" else "{" ^ labels ^ "}" in
        add "%s%s %s\n" fam plain (fmt_gauge v))
      (grouped (gauges ()));
    last_fam := "";
    List.iter
      (fun (fam, labels, h) ->
        type_line fam "histogram";
        add_hist_series buf ~fam ~labels h)
      (grouped (histograms ()));
    let spans_h = span_histograms () in
    if spans_h <> [] then begin
      let fam = "maxtruss_span_duration_ns" in
      add "# TYPE %s histogram\n" fam;
      List.iter
        (fun (path, h) ->
          let labels = Printf.sprintf "path=\"%s\"" (label_escape path) in
          add_hist_series buf ~fam ~labels h)
        spans_h
    end;
    add "# EOF\n";
    Buffer.contents buf
end

let openmetrics () = Openmetrics.render ()

let write_openmetrics path = write_file path (openmetrics ())

(* Shared by `bench --assert-openmetrics` and `maxtruss-serve
   --assert-openmetrics`: validate the exposition's shape without parsing
   it fully. *)
let lint_openmetrics ?(require_bucket = true) text =
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  let sample_ok line =
    String.length line > 0
    && (line.[0] = '#'
       ||
       match String.rindex_opt line ' ' with
       | None -> false
       | Some i ->
         let value = String.sub line (i + 1) (String.length line - i - 1) in
         let series = String.sub line 0 i in
         series <> ""
         && (value = "+Inf" || float_of_string_opt value <> None)
         && (match String.index_opt series '{' with
            | Some j -> series.[String.length series - 1] = '}' && j > 0
            | None -> true))
  in
  let type_families =
    List.filter_map
      (fun l ->
        if String.length l > 7 && String.sub l 0 7 = "# TYPE " then
          match String.split_on_char ' ' l with _ :: _ :: fam :: _ -> Some fam | _ -> None
        else None)
      lines
  in
  let rec dup = function
    | [] -> None
    | f :: rest -> if List.mem f rest then Some f else dup rest
  in
  let has_bucket =
    List.exists
      (fun l ->
        match String.index_opt l '{' with
        | Some j when j >= 7 -> String.sub l (j - 7) 7 = "_bucket"
        | _ -> false)
      lines
  in
  let ends_eof = match List.rev lines with "# EOF" :: _ -> true | _ -> false in
  match List.find_opt (fun l -> not (sample_ok l)) lines with
  | Some bad -> Error (Printf.sprintf "malformed line %S" bad)
  | None -> (
    if not ends_eof then Error "missing # EOF terminator"
    else
      match dup type_families with
      | Some fam -> Error (Printf.sprintf "family %s has more than one # TYPE line" fam)
      | None ->
        if require_bucket && not has_bucket then Error "no _bucket series in export"
        else Ok (List.length lines))
