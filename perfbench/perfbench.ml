(* Benchmark entry point: perfbench --workload W --seed N --seconds S --trace 0|1

   Prints a labelled metric table and, as the last line of standard output,
   one JSON object {correct, attempted, failed, metrics}.  With --trace 0 the
   metrics are the end-to-end set, measured with tracing off; with --trace 1
   they are the per-layer set from a separate traced run.  Exits 1 when any
   operation failed its correctness check, or a traced run's layer residual
   is outside its stated bound, 2 on a usage error.

   Two flags exist for the self-test, to show the gates can trip:
   --wrong-reference shifts every reference checksum and
   --zero-residual-bound sets the residual bound to 0. *)

let workloads = Sim.names @ [ "serve-mix" ]

(* Every per-layer metric, in table order; a layer idle on a workload
   reports 0. *)
let per_layer =
  [
    ("proto.faults", "count"); ("proto.fault_s", "s"); ("proto.fault_us_mean", "us");
    ("core.presend_s", "s"); ("core.phase_end_s", "s"); ("core.presend_blocks", "count");
    ("core.presend_msgs", "count"); ("core.sched_records", "count");
    ("core.presend_useful_ratio", "ratio"); ("tempest.accesses", "count");
    ("tempest.local_hit_ratio", "ratio"); ("tempest.msgs", "count"); ("tempest.mbytes", "MB");
    ("tempest.local_read_ns", "ns"); ("tempest.local_s_est", "s"); ("apps.self_s", "s");
    ("cstar.compile_ms", "ms"); ("runtime.create_s", "s"); ("runtime.barrier_s", "s");
    ("runtime.phases", "count"); ("runtime.tasks", "count"); ("gc.minor_collections", "count");
    ("gc.major_collections", "count"); ("gc.promoted_mwords", "Mword");
    ("serve.parse_us_p50", "us"); ("serve.io_us_p50", "us"); ("serve.cache_hit_ratio", "ratio");
    ("serve.hit_ms_p50", "ms"); ("serve.hit_ms_p90", "ms"); ("serve.hit_ms_p99", "ms");
    ("serve.predict_ms_p50", "ms"); ("serve.predict_ms_p90", "ms");
    ("serve.queue_wait_ms_p50", "ms"); ("serve.queue_wait_ms_p90", "ms");
    ("serve.run_ms_p50", "ms"); ("pool.busy_ratio", "ratio"); ("rdist.profile_s", "s");
    ("rdist.prepare_ms", "ms"); ("rdist.eval_us", "us"); ("rdist.predict_cold_ms", "ms");
    ("obs.trace_overhead_ratio", "ratio"); ("obs.layer_residual_ratio", "ratio");
    ("obs.traced_host_s", "s");
  ]

let complete measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (x : Report.metric) -> x.name = name) measured with
      | Some x -> x
      | None -> Report.m ~kind:Report.Exact name unit_ 0.0)
    per_layer

let usage msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline
    "usage: perfbench --workload {stache-32|predictive-32|predictive-256|serve-mix} --seed N \
     --seconds S --trace {0|1} [--tiny] [--wrong-reference] [--zero-residual-bound]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref false in
  let tiny = ref false and wrong_reference = ref false and serve_pass = ref false in
  let zero_bound = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest ->
        (match int_of_string_opt s with Some n -> seed := Some n | None -> usage "bad --seed");
        parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some x when x > 0.0 -> seconds := x
        | _ -> usage "bad --seconds");
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | "--tiny" :: rest -> tiny := true; parse rest
    | "--wrong-reference" :: rest -> wrong_reference := true; parse rest
    | "--zero-residual-bound" :: rest -> zero_bound := true; parse rest
    | "--serve-pass" :: rest -> serve_pass := true; parse rest
    | arg :: _ -> usage ("unexpected argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage "--seed is required" in
  if not (List.mem !workload workloads) then usage ("unknown workload " ^ !workload);
  let size = if !tiny then Sim.Tiny else Sim.Full in
  (* the self-test's tiny runs make a single pass *)
  let seconds = if !tiny then 0.0 else !seconds in
  if !serve_pass then Serve_mix.child ~size ~seed ~traced:!trace ~wrong_reference:!wrong_reference
  else begin
    (* A hung run must still end within the benchmark's 180 s limit:
       SIGALRM's default action ends the process without a result line. *)
    ignore (Unix.alarm 170);
    let metrics, attempted, failed =
      if !workload = "serve-mix" then
        Serve_mix.run ~size ~seed ~seconds ~trace:!trace ~wrong_reference:!wrong_reference
          ~zero_bound:!zero_bound
      else
        Sim.run ~size ~seed ~seconds ~trace:!trace ~wrong_reference:!wrong_reference
          ~zero_bound:!zero_bound !workload
    in
    let metrics = if !trace then complete metrics else metrics in
    let correct = failed = 0 && attempted > 0 in
    Report.print_table
      ~title:
        (Printf.sprintf "%s seed %d, %s run" !workload seed
           (if !trace then "traced per-layer" else "untraced end-to-end"))
      metrics;
    Printf.printf "error_rate %.6g (%d failed of %d attempted)\n"
      (Report.ratio (float_of_int failed) (float_of_int attempted)) failed attempted;
    Report.print_json ~correct ~attempted ~failed metrics;
    exit (if correct then 0 else 1)
  end
