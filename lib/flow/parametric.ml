let c_warm = Obs.Counter.make "parametric.warm_probes"

let c_cold = Obs.Counter.make "parametric.cold_restarts"

let c_restores = Obs.Counter.make "parametric.snapshot_restores"

let c_saved_phases = Obs.Counter.make "parametric.saved_bfs_phases"

let c_reused_flow = Obs.Counter.make "parametric.reused_flow_units"

(* A snapshot of one solved state: capacities + flow bookkeeping, cheap to
   blit back.  Kept for the smallest g solved so far, so any later probe at
   g' >= snap_g can warm-start from it instead of from zero flow. *)
type checkpoint = {
  ck_g : int;
  ck_flow : int;
  ck_phases : int;
  ck_snap : Flow_network.snapshot;
}

type t = {
  net : Flow_network.t;
  source : int;
  sink : int;
  mutable gate_arc : int array;  (* gate index -> arc id *)
  mutable gate_base : int array;
  mutable gate_offset : int array;
  mutable n_gates : int;
  mutable solved : bool;  (* a flow for [last_g] is in the network *)
  mutable last_g : int;
  mutable flow : int;  (* current retained flow value *)
  mutable phases : int;  (* BFS phases accumulated into the retained flow *)
  mutable low : checkpoint option;
}

let create ~nodes ~source ~sink =
  if source = sink then invalid_arg "Parametric.create: source equals sink";
  {
    net = Flow_network.create ~nodes;
    source;
    sink;
    gate_arc = [||];
    gate_base = [||];
    gate_offset = [||];
    n_gates = 0;
    solved = false;
    last_g = 0;
    flow = 0;
    phases = 0;
    low = None;
  }

let add_arc t ~src ~dst ~cap =
  if t.solved then invalid_arg "Parametric.add_arc: network already solved";
  ignore (Flow_network.add_arc t.net ~src ~dst ~cap)

let add_gate t ~src ~base ~offset =
  if t.solved then invalid_arg "Parametric.add_gate: network already solved";
  if base < 0 then invalid_arg "Parametric.add_gate: negative base";
  let id = Flow_network.add_arc t.net ~src ~dst:t.sink ~cap:0 in
  let n = t.n_gates in
  if n >= Array.length t.gate_arc then begin
    let ncap = max 16 (2 * Array.length t.gate_arc) in
    let extend a =
      let na = Array.make ncap 0 in
      Array.blit a 0 na 0 n;
      na
    in
    t.gate_arc <- extend t.gate_arc;
    t.gate_base <- extend t.gate_base;
    t.gate_offset <- extend t.gate_offset
  end;
  t.gate_arc.(n) <- id;
  t.gate_base.(n) <- base;
  t.gate_offset.(n) <- offset;
  t.n_gates <- n + 1

let gate_cap t i ~g = t.gate_base.(i) + max 0 (g - t.gate_offset.(i))

(* Retune every gate arc to its capacity at [g], preserving routed flow.
   Legal whenever no gate loses capacity below its committed flow — in
   particular whenever g >= the g the current flow was solved at, since
   gate capacities are nondecreasing in g. *)
let retune t ~g =
  for i = 0 to t.n_gates - 1 do
    Flow_network.set_cap t.net t.gate_arc.(i) (gate_cap t i ~g)
  done

let resume t ~g =
  let inc, phases = Dinic.max_flow_ext t.net ~s:t.source ~t:t.sink in
  t.flow <- t.flow + inc;
  t.phases <- t.phases + phases;
  t.last_g <- g;
  t.solved <- true

let take_checkpoint t =
  t.low <-
    Some
      {
        ck_g = t.last_g;
        ck_flow = t.flow;
        ck_phases = t.phases;
        ck_snap = Flow_network.snapshot t.net;
      }

let solve t ~g =
  if g < 0 then invalid_arg "Parametric.solve: negative parameter";
  if not t.solved then begin
    (* First probe: cold by definition; its solution becomes the low-water
       checkpoint every descending probe can warm-start from. *)
    Obs.Counter.incr c_cold;
    retune t ~g;
    t.flow <- 0;
    t.phases <- 0;
    resume t ~g;
    take_checkpoint t
  end
  else if g >= t.last_g then begin
    (* Capacities only grow: the retained flow stays feasible, so Dinic
       computes just the increment on the residual network. *)
    Obs.Counter.incr c_warm;
    Obs.Counter.add c_reused_flow t.flow;
    Obs.Counter.add c_saved_phases t.phases;
    retune t ~g;
    resume t ~g
  end
  else begin
    match t.low with
    | Some ck when ck.ck_g <= g ->
      (* Descending probe, but the low-water checkpoint is below it:
         restore that flow (a blit) and grow from there. *)
      Obs.Counter.incr c_warm;
      Obs.Counter.incr c_restores;
      Obs.Counter.add c_reused_flow ck.ck_flow;
      Obs.Counter.add c_saved_phases ck.ck_phases;
      Flow_network.restore t.net ck.ck_snap;
      t.flow <- ck.ck_flow;
      t.phases <- ck.ck_phases;
      t.last_g <- ck.ck_g;
      retune t ~g;
      resume t ~g
    | _ ->
      (* Below every retained state: drop the flow and solve from zero,
         then adopt this g as the new low-water checkpoint. *)
      Obs.Counter.incr c_cold;
      Flow_network.reset t.net;
      retune t ~g;
      t.flow <- 0;
      t.phases <- 0;
      resume t ~g;
      take_checkpoint t
  end;
  Min_cut.extract_max t.net ~t:t.sink ~value:t.flow
