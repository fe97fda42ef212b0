open Graphcore

let c_repeats = Obs.Counter.make "random_interp.repeats"

let g_best_repeat = Obs.Gauge.make "random_interp.best_repeat"

let interpolate ~rng ~ctx ~component ~budget ~repeats ?forbidden () =
  let pool = Candidate.pool ~g:ctx.Score.g ~component ?forbidden () in
  if Array.length pool = 0 || budget < 1 then []
  else
    Obs.Span.with_ "random_interp.interpolate" @@ fun () ->
    Obs.Counter.add c_repeats repeats;
    let pairs = ref [] in
    let best_v = ref 0 and best_repeat = ref (-1) in
    for r = 1 to repeats do
      let b_r = Rng.int_in rng 1 budget in
      let chosen = Rng.sample_without_replacement rng b_r pool in
      let inserted = Array.to_list chosen |> List.map Edge_key.endpoints in
      let delta = Score.evaluate ctx inserted in
      let promoted = Hashtbl.create 64 in
      List.iter (fun key -> Hashtbl.replace promoted key ()) delta.Truss.Maintain.promoted;
      (* Only inserted edges that made it into the truss are charged; the
         others would be peeled anyway, so the plan omits them. *)
      let surviving =
        List.filter (fun key -> Hashtbl.mem promoted key) (Array.to_list chosen)
      in
      let v = List.length delta.Truss.Maintain.promoted in
      if v > !best_v then begin
        best_v := v;
        best_repeat := r
      end;
      if surviving <> [] && v > 0 then pairs := Plan.make ~inserted:surviving ~score:v :: !pairs
    done;
    Obs.Gauge.set_int g_best_repeat !best_repeat;
    Plan.normalize !pairs
