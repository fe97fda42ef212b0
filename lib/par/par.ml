(* Fixed domain pool with deterministic fork/join primitives.

   No Domainslib (the repo's no-external-deps policy): the pool is stdlib
   Domain + Mutex + Condition.  [domains () - 1] worker domains are spawned
   lazily on the first parallel region and parked on a condition variable
   between regions; the calling (main) domain always participates as slot
   0, so [--domains 1] never spawns anything and runs exactly the
   sequential code path.

   Determinism contract: {!tasks} assigns task t to slot [t mod domains]
   statically, results land in a preallocated array at their task index,
   and Obs span buffers are merged in task-index order after the join, so
   outputs (and exports) are bit-identical at any domain count —
   parallelism only changes wall-clock time.  Callers must keep task
   bodies free of shared mutable state (or confine writes to disjoint
   slices); everything this module hands a task is task-private.

   Reentrancy: a parallel region entered from a worker domain, or while
   another region is running on the main domain, silently degrades to
   sequential execution — nested [tasks] calls are common (a parallelized
   kernel invoked from inside a parallelized outer phase) and must not
   deadlock on the single pool. *)

(* [par.tasks] counts tasks run inside a forked region (sequential
   fallbacks don't count — the counter is the "did it actually fork"
   probe CI asserts on).  [par.pool_size] is the current total
   parallelism (workers + owner). *)
let c_tasks = Obs.Counter.make "par.tasks"

let g_pool = Obs.Gauge.make "par.pool_size"

(* The domain that loaded this module; the only one allowed to fork. *)
let owner = Domain.self ()

(* [set_domains 0] / MAXTRUSS_DOMAINS=0: size the pool from the hardware.
   Clamped to [1, 64] — recommended_domain_count can report huge values on
   big metal, and past ~64 slots the fork/join constant costs dominate
   every kernel this repo runs. *)
let auto_domains () = max 1 (min 64 (Domain.recommended_domain_count ()))

let env_domains () =
  match Sys.getenv_opt "MAXTRUSS_DOMAINS" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some 0 -> auto_domains ()
    | Some n when n >= 1 -> n
    | _ -> 1)

(* 0 = unresolved: consult MAXTRUSS_DOMAINS on first use. *)
let requested = ref 0

let domains () =
  if !requested = 0 then requested := env_domains ();
  !requested

type pool = {
  workers : int;  (* worker domains; total parallelism = workers + 1 *)
  mutex : Mutex.t;
  work : Condition.t;  (* a new job was posted (or stop) *)
  done_ : Condition.t;  (* a worker finished the current job *)
  mutable job : int -> unit;  (* slot index -> unit; total over tasks *)
  mutable seq : int;  (* job sequence number; workers wait for a change *)
  mutable pending : int;  (* workers still running the current job *)
  mutable stop : bool;
  mutable doms : unit Domain.t list;
}

let no_job (_ : int) = ()

let the_pool : pool option ref = ref None

(* True while the owner is inside a parallel region (owner-domain only). *)
let busy = ref false

let worker_loop p slot =
  let last = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock p.mutex;
    while (not p.stop) && p.seq = !last do
      Condition.wait p.work p.mutex
    done;
    if p.stop then begin
      Mutex.unlock p.mutex;
      running := false
    end
    else begin
      last := p.seq;
      let job = p.job in
      Mutex.unlock p.mutex;
      (* [job] captures per-task exceptions itself; the catch-all only
         guards pool invariants against a broken caller. *)
      (try job slot with _ -> ());
      Mutex.lock p.mutex;
      p.pending <- p.pending - 1;
      if p.pending = 0 then Condition.signal p.done_;
      Mutex.unlock p.mutex
    end
  done

let shutdown () =
  match !the_pool with
  | None -> ()
  | Some p ->
    Mutex.lock p.mutex;
    p.stop <- true;
    Condition.broadcast p.work;
    Mutex.unlock p.mutex;
    List.iter Domain.join p.doms;
    the_pool := None

(* Idle workers would otherwise keep the process alive past the main
   domain's exit. *)
let () = at_exit shutdown

let rec get_pool workers =
  match !the_pool with
  | Some p when p.workers = workers -> p
  | Some _ ->
    shutdown ();
    get_pool workers
  | None ->
    let p =
      {
        workers;
        mutex = Mutex.create ();
        work = Condition.create ();
        done_ = Condition.create ();
        job = no_job;
        seq = 0;
        pending = 0;
        stop = false;
        doms = [];
      }
    in
    p.doms <- List.init workers (fun i -> Domain.spawn (fun () -> worker_loop p (i + 1)));
    the_pool := Some p;
    p

let set_domains n =
  if Domain.self () <> owner then
    invalid_arg "Par.set_domains: only the main domain may resize the pool";
  let n = if n = 0 then auto_domains () else max 1 n in
  (match !the_pool with
  | Some p when p.workers <> n - 1 -> shutdown ()
  | _ -> ());
  requested := n;
  Obs.Gauge.set_int g_pool n

let available () = domains () > 1 && Domain.self () = owner && not !busy

let seq_tasks fs = Array.map (fun f -> f ()) fs

(* A forked region posts the job to the pool, participates as slot 0,
   waits for the workers, then merges span buffers and re-raises the
   lowest-indexed task failure. *)
let tasks (fs : (unit -> 'a) array) : 'a array =
  let nt = Array.length fs in
  let d = domains () in
  if nt = 0 then [||]
  else if d <= 1 || nt <= 1 || Domain.self () <> owner || !busy then seq_tasks fs
  else begin
    let p = get_pool (d - 1) in
    (* One span buffer per task, created pre-fork on the owner; merged in
       task order post-join so the exported tree is schedule-independent. *)
    let scopes = Array.init nt (fun _ -> Obs.Domain_scope.create ()) in
    let results : 'a option array = Array.make nt None in
    let errors : (exn * Printexc.raw_backtrace) option array = Array.make nt None in
    let job slot =
      let t = ref slot in
      while !t < nt do
        (match Obs.Domain_scope.run scopes.(!t) fs.(!t) with
        | v -> results.(!t) <- Some v
        | exception e -> errors.(!t) <- Some (e, Printexc.get_raw_backtrace ()));
        t := !t + d
      done
    in
    Obs.Counter.add c_tasks nt;
    Obs.Gauge.set_int g_pool d;
    busy := true;
    Mutex.lock p.mutex;
    p.job <- job;
    p.seq <- p.seq + 1;
    p.pending <- p.workers;
    Condition.broadcast p.work;
    Mutex.unlock p.mutex;
    job 0;
    Mutex.lock p.mutex;
    while p.pending > 0 do
      Condition.wait p.done_ p.mutex
    done;
    (* The mutex handoff above is the happens-before edge that makes the
       workers' writes to [results]/[errors]/span buffers visible here. *)
    p.job <- no_job;
    Mutex.unlock p.mutex;
    busy := false;
    Array.iter Obs.Domain_scope.merge scopes;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.map (function Some v -> v | None -> assert false) results
  end

let parallel_map f xs = tasks (Array.map (fun x () -> f x) xs)

let map_list f l = Array.to_list (parallel_map f (Array.of_list l))
