open Graphcore

let c_triangles = Obs.Counter.make "support.triangles_enumerated"

(* Below this many edges the per-domain scratch arrays cost more than the
   enumeration they split; the cutoff only switches execution strategy,
   never the result.  The merge pass costs chunks * m, so the scatter uses
   as few chunks as possible: exactly [Par.domains ()], balanced by
   oriented out-degree. *)
let par_cutoff = 4096

let all_csr csr =
  let m = Csr.num_edges csr in
  let sup = Array.make (max m 1) 0 in
  (* Each triangle is enumerated exactly once by the degree orientation;
     scatter +1 to its three edge ids. *)
  let d = Par.domains () in
  if (not (Par.available ())) || m < par_cutoff then
    Csr.iter_triangles csr (fun e1 e2 e3 ->
        sup.(e1) <- sup.(e1) + 1;
        sup.(e2) <- sup.(e2) + 1;
        sup.(e3) <- sup.(e3) + 1)
  else begin
    (* Static vertex ranges balanced by oriented out-degree; every task
       scatters into a private array and the owner sums them in task order.
       Triangle counts are integers, so the merged array is identical to
       the sequential scatter at any domain count. *)
    Csr.prepare_triangles csr;
    let bounds = Csr.triangle_range_bounds csr ~chunks:d in
    let parts =
      Par.tasks
        (Array.init (Array.length bounds - 1) (fun i () ->
             let local = Array.make (max m 1) 0 in
             Csr.iter_triangles_range csr ~lo:bounds.(i) ~hi:bounds.(i + 1)
               (fun e1 e2 e3 ->
                 local.(e1) <- local.(e1) + 1;
                 local.(e2) <- local.(e2) + 1;
                 local.(e3) <- local.(e3) + 1);
             local))
    in
    Array.iter
      (fun local ->
        for e = 0 to m - 1 do
          sup.(e) <- sup.(e) + local.(e)
        done)
      parts
  end;
  (* Triangle count recovered from the scatter (sum sup = 3T) so the hot
     enumeration loop itself carries no instrumentation. *)
  if Obs.enabled () then begin
    let t = ref 0 in
    Array.iter (fun s -> t := !t + s) sup;
    Obs.Counter.add c_triangles (!t / 3)
  end;
  sup
