type t = { inserted : (int * int) list; score : int; time_s : float; timed_out : bool }

let empty = { inserted = []; score = 0; time_s = 0.0; timed_out = false }

let timed f ~original ~k =
  let start = Unix.gettimeofday () in
  let csr = Graphcore.Csr.of_graph original in
  let dec = Truss.Decompose.of_csr csr in
  let inserted, timed_out = f ~csr ~dec in
  let time_s = Unix.gettimeofday () -. start in
  let score = Score.evaluate_oracle ~snapshot:(csr, dec) original ~k ~inserted in
  { inserted; score; time_s; timed_out }
