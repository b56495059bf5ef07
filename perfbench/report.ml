(* Metric records, summary statistics and the two renderings: a labelled
   human-readable table and the final one-line JSON result. *)

type kind = Host | Simulated | Exact
(* [Host]: measured host time or memory, subject to sandbox noise.
   [Simulated]: the simulated machine's clock, deterministic per seed.
   [Exact]: a deterministic count or ratio of counts. *)

type metric = { name : string; unit_ : string; value : float; kind : kind }

let m ?(kind = Host) name unit_ value = { name; unit_; value; kind }
let kind_label = function Host -> "host" | Simulated -> "simulated" | Exact -> "exact"

let median a = if Array.length a = 0 then 0.0 else Ccdsm_util.Stats.quantile a 0.5
let quantile a q = if Array.length a = 0 then 0.0 else Ccdsm_util.Stats.quantile a q
let mean a = if Array.length a = 0 then 0.0 else Ccdsm_util.Stats.mean a
let ratio a b = if b = 0.0 then 0.0 else a /. b

let notes =
  [
    "simulated figures come from an unvalidated model: the CM-5 and Blizzard are gone and the \
     repo holds only qualitative shape checks, so no error figure is given";
    "host times are subject to sandbox noise; simulated statistics are exact and repeat per seed";
    "the single-sample wall_ms in BENCH.json is not a basis for a performance claim";
  ]

let print_table ~title metrics =
  Printf.printf "== %s\n" title;
  List.iter (fun n -> Printf.printf "note: %s\n" n) notes;
  List.iter
    (fun x ->
      Printf.printf "  %-28s %16.6g %-10s [%s]\n" x.name x.value x.unit_ (kind_label x.kind))
    metrics

(* Per-pass values behind a run's figures, printed above the table so a
   reader can see the spread inside one run. *)
let print_passes rows =
  List.iter
    (fun (name, a) ->
      Printf.printf "passes %s:%s\n" name
        (String.concat "" (Array.to_list (Array.map (Printf.sprintf " %.6g") a))))
    rows

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_json ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)
