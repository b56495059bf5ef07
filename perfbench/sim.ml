(* The three simulation workloads: a fixed job list run back to back from one
   caller (closed loop, one job outstanding), each job on a fresh machine
   through [Measure.measure] with a run closure this file owns. *)

module Machine = Ccdsm_tempest.Machine
module Runtime = Ccdsm_runtime.Runtime
module Predictive = Ccdsm_core.Predictive
module Measure = Ccdsm_harness.Measure
module Compile = Ccdsm_cstar.Compile
open Ccdsm_apps

let now = Layer_clock.now
let secs ns = float_of_int ns /. 1e9

type size = Full | Tiny

type job = {
  app : string;
  protocol : Runtime.protocol;
  block_bytes : int;
  nodes : int;
  run : Runtime.t -> float;
  reference : unit -> float;
}

(* [Full] is the Experiments "scaled" data set; [Tiny] is the self-test's. *)
let paper_apps ~size ~seed ~nodes =
  let a =
    match size with
    | Full -> { Adaptive.default with Adaptive.n = 96; iterations = 20; refine_every = 4; seed }
    | Tiny -> { Adaptive.small with Adaptive.seed }
  in
  let b =
    match size with
    | Full -> { Barnes.default with Barnes.n_bodies = 2048; iterations = 3; seed }
    | Tiny -> { Barnes.small with Barnes.seed }
  in
  let w =
    match size with
    | Full -> { Water.default with Water.n_molecules = 256; iterations = 8; seed }
    | Tiny -> { Water.small with Water.seed }
  in
  [
    ( "adaptive",
      (fun rt -> (Adaptive.run rt a).Adaptive.checksum),
      fun () -> (Adaptive.reference a).Adaptive.checksum );
    ( "barnes",
      (fun rt -> (Barnes.run rt b).Barnes.checksum),
      fun () -> (Barnes.reference b).Barnes.checksum );
    ( "water",
      (fun rt -> (Water.run rt w).Water.checksum),
      fun () -> (Water.reference ~nodes w).Water.checksum );
  ]

let names = [ "stache-32"; "predictive-32"; "predictive-256" ]

let jobs ~size ~seed workload =
  let grid protocol =
    List.concat_map
      (fun (app, run, reference) ->
        List.map
          (fun block_bytes -> { app; protocol; block_bytes; nodes = 32; run; reference })
          [ 32; 256 ])
      (paper_apps ~size ~seed ~nodes:32)
  in
  match workload with
  | "stache-32" -> grid Runtime.Stache
  | "predictive-32" -> grid Runtime.Predictive
  | "predictive-256" ->
      (* Above 62 nodes: wide directories, the byte-string Nodeset arm and
         presend fan-out.  The tiny size keeps that regime at 64 nodes.
         Four time steps instead of the scaled eight: three of them still
         presend, and twice as many passes fit in a run. *)
      let nodes = match size with Full -> 256 | Tiny -> 64 in
      let w =
        match size with
        | Full -> { Water.default with Water.n_molecules = 256; iterations = 4; seed }
        | Tiny -> { Water.small with Water.seed }
      in
      [
        {
          app = "water";
          protocol = Runtime.Predictive;
          block_bytes = 32;
          nodes;
          run = (fun rt -> (Water.run rt w).Water.checksum);
          reference = (fun () -> (Water.reference ~nodes w).Water.checksum);
        };
      ]
  | w -> invalid_arg ("unknown sim workload " ^ w)

let skeletons jobs =
  List.sort_uniq compare
    (List.filter_map
       (fun j ->
         match j.app with
         | "adaptive" -> Some Adaptive.skeleton_src
         | "water" -> Some Water.skeleton_src
         | _ -> None)
       jobs)

let machine_cfg j = Machine.default_config ~num_nodes:j.nodes ~block_bytes:j.block_bytes ()

(* -- set-up ------------------------------------------------------------------ *)

type setup = { refs : float array; setup_s : float; compile_ms : float }

(* One set-up round: the reference checksums the gate compares against, the
   C** skeleton compiles, and one [Runtime.create] per job. *)
let setup_round jobs =
  let t0 = now () in
  let refs = Array.of_list (List.map (fun j -> j.reference ()) jobs) in
  let t1 = now () in
  List.iter (fun src -> ignore (Sys.opaque_identity (Compile.compile_exn src))) (skeletons jobs);
  let t2 = now () in
  List.iter
    (fun j -> ignore (Sys.opaque_identity (Runtime.create ~cfg:(machine_cfg j) ~protocol:j.protocol ())))
    jobs;
  (refs, secs (now () - t0), float_of_int (t2 - t1) /. 1e6)

let setup ~rounds ~wrong_reference jobs =
  let rs = List.init rounds (fun _ -> setup_round jobs) in
  let med f = Report.median (Array.of_list (List.map f rs)) in
  let refs, _, _ = List.hd rs in
  let refs = if wrong_reference then Array.map (fun r -> r +. 1.0) refs else refs in
  { refs; setup_s = med (fun (_, s, _) -> s); compile_ms = med (fun (_, _, c) -> c) }

(* -- one app closure, counted and (when traced) clocked ------------------------ *)

(* What one app run simulated: exact counts. *)
type counts = {
  accesses : int;
  faults : int;
  msgs : int;
  bytes : int;
  phases : int;
  tasks : int;
  pblocks : int;
  pmsgs : int;
  precords : int;
  pwasted : int;  (** redundant + undone presend blocks *)
}

let counts rt =
  let c = Machine.total_counters (Runtime.machine rt) in
  let p f = match Runtime.predictive rt with Some p -> f (Predictive.stats p) | None -> 0 in
  {
    accesses = c.local_reads + c.local_writes;
    faults = c.read_faults + c.write_faults;
    msgs = c.msgs;
    bytes = c.bytes;
    phases = Runtime.phases_run rt;
    tasks = Runtime.tasks_dispatched rt;
    pblocks = p (fun s -> s.presend_blocks);
    pmsgs = p (fun s -> s.presend_msgs);
    precords = p (fun s -> s.faults_recorded);
    pwasted = p (fun s -> s.presend_redundant + s.presend_undone);
  }

(* The counts as named fields, and back: serve-mix passes them from its
   pass process to the parent as text. *)
let count_fields c =
  [
    ("accesses", c.accesses); ("faults", c.faults); ("msgs", c.msgs); ("bytes", c.bytes);
    ("phases", c.phases); ("tasks", c.tasks); ("presend_blocks", c.pblocks);
    ("presend_msgs", c.pmsgs); ("sched_records", c.precords); ("presend_wasted", c.pwasted);
  ]

let counts_of get =
  {
    accesses = get "accesses";
    faults = get "faults";
    msgs = get "msgs";
    bytes = get "bytes";
    phases = get "phases";
    tasks = get "tasks";
    pblocks = get "presend_blocks";
    pmsgs = get "presend_msgs";
    precords = get "sched_records";
    pwasted = get "presend_wasted";
  }

let sum_counts l =
  counts_of (fun k -> List.fold_left (fun a c -> a + List.assoc k (count_fields c)) 0 l)

(* Host seconds of one or more traced closures, split by layer. *)
type layers = {
  closure_s : float;
  fault_s : float;
  presend_s : float;
  commit_s : float;
  barrier_s : float;
}

let layer_fields l =
  [
    ("closure_s", l.closure_s); ("fault_s", l.fault_s); ("presend_s", l.presend_s);
    ("commit_s", l.commit_s); ("barrier_s", l.barrier_s);
  ]

let layers_of get =
  {
    closure_s = get "closure_s";
    fault_s = get "fault_s";
    presend_s = get "presend_s";
    commit_s = get "commit_s";
    barrier_s = get "barrier_s";
  }

let sum_layers l =
  layers_of (fun k -> List.fold_left (fun a x -> a +. List.assoc k (layer_fields x)) 0.0 l)

(* [run rt], with a [Layer_clock] subscribed to the machine when [traced]:
   the checksum and, when traced, where the closure's host time went. *)
let instrumented ~traced run rt =
  let clock =
    if traced then begin
      let c = Layer_clock.create ~core:(Runtime.predictive rt <> None) in
      Machine.subscribe (Runtime.machine rt) (Layer_clock.on_event c);
      Some c
    end
    else None
  in
  let t0 = now () in
  let checksum = run rt in
  let closure_ns = now () - t0 in
  ( checksum,
    Option.map
      (fun (c : Layer_clock.t) ->
        {
          closure_s = secs closure_ns;
          fault_s = secs c.fault_ns;
          presend_s = secs c.presend_ns;
          commit_s = secs c.commit_ns;
          barrier_s = secs c.barrier_ns;
        })
      clock )

(* -- one job ----------------------------------------------------------------- *)

type outcome = {
  host_ns : int;
  create_ns : int;  (** [Measure.measure] entry to closure entry: [Runtime.create] *)
  checksum : float;
  signature : string;  (** every simulated statistic of the run, exactly *)
  total_us : float;
  counts : counts;
  alloc_words : float;
  minor_gcs : int;
  major_gcs : int;
  promoted_words : float;
  layers : layers option;
}

let bits = Int64.bits_of_float

let signature (m : Measure.measurement) rt =
  let c = m.Measure.counters in
  let b = Buffer.create 128 in
  List.iter
    (fun f -> Buffer.add_string b (Printf.sprintf "%Lx," (bits f)))
    [ m.total_us; m.compute_us; m.remote_wait_us; m.presend_us; m.synch_us; m.checksum ];
  List.iter
    (fun i -> Buffer.add_string b (Printf.sprintf "%d," i))
    [
      c.local_reads; c.local_writes; c.read_faults; c.write_faults; c.msgs; c.bytes;
      c.invalidations; c.downgrades; Runtime.phases_run rt; Runtime.tasks_dispatched rt;
    ];
  (match Runtime.predictive rt with
  | None -> ()
  | Some p ->
      let s = Predictive.stats p in
      List.iter
        (fun i -> Buffer.add_string b (Printf.sprintf "%d," i))
        [
          s.faults_recorded; s.presend_msgs; s.presend_blocks; s.presend_bytes;
          s.presend_redundant; s.presend_undone; s.presend_grants_r; s.presend_grants_w;
        ]);
  Buffer.contents b

let run_job ~traced j =
  let rt_seen = ref None and layers = ref None and entry = ref 0 in
  let run rt =
    entry := now ();
    rt_seen := Some rt;
    let checksum, l = instrumented ~traced j.run rt in
    layers := l;
    checksum
  in
  let version =
    Measure.version ~label:j.app ~protocol:j.protocol ~block_bytes:j.block_bytes run
  in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let m = Measure.measure ~num_nodes:j.nodes version in
  let host_ns = now () - t0 in
  let g1 = Gc.quick_stat () in
  let rt = Option.get !rt_seen in
  let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  {
    host_ns;
    create_ns = !entry - t0;
    checksum = m.Measure.checksum;
    signature = signature m rt;
    total_us = m.Measure.total_us;
    counts = counts rt;
    alloc_words = words g1 -. words g0;
    minor_gcs = g1.minor_collections - g0.minor_collections;
    major_gcs = g1.major_collections - g0.major_collections;
    promoted_words = g1.promoted_words -. g0.promoted_words;
    layers = !layers;
  }

(* -- passes and the correctness gate ----------------------------------------- *)

type state = {
  jobs : job array;
  refs : float array;
  first_sig : string option array;  (** the first signature seen per job *)
  mutable attempted : int;
  mutable failed : int;
}

(* A job fails when its checksum is not bit-equal to the sequential
   reference, or when any simulated statistic differs from the first run of
   the same job in this process (traced or not). *)
let check st i (o : outcome) =
  st.attempted <- st.attempted + 1;
  let ok_ref = Int64.equal (bits o.checksum) (bits st.refs.(i)) in
  let ok_sig =
    match st.first_sig.(i) with
    | None ->
        st.first_sig.(i) <- Some o.signature;
        true
    | Some s -> String.equal s o.signature
  in
  if not (ok_ref && ok_sig) then begin
    st.failed <- st.failed + 1;
    Printf.eprintf "perfbench: %s/%s/%dB/%d nodes: %s\n%!" st.jobs.(i).app
      (Runtime.protocol_name st.jobs.(i).protocol)
      st.jobs.(i).block_bytes st.jobs.(i).nodes
      (if not ok_ref then Printf.sprintf "checksum %h <> reference %h" o.checksum st.refs.(i)
       else "simulated statistics differ between runs of one seed")
  end

let pass st ~traced =
  Array.mapi
    (fun i j ->
      let o = run_job ~traced j in
      check st i o;
      o)
    st.jobs

let sum f a = Array.fold_left (fun acc x -> acc +. f x) 0.0 a
let isum f a = Array.fold_left (fun acc x -> acc + f x) 0 a

(* Pass loop: keep going while another pass of the last one's length still
   fits in the budget; always at least one. *)
let passes ~seconds f =
  let t0 = now () in
  let rec go acc last =
    if acc <> [] && secs (now () - t0) +. last > seconds then List.rev acc
    else begin
      let p0 = now () in
      let r = f (List.length acc) in
      go (r :: acc) (secs (now () - p0))
    end
  in
  go [] 0.0

(* [f ()] with the host-speed factor around it, from the calibration
   samples before and after; [last] holds the latest sample and is
   updated.  The heap is compacted before the closing sample, so every
   pass starts from the same heap state instead of inheriting the last
   one's fragmentation. *)
let calibrated last f =
  let r = f () in
  Gc.compact ();
  let c = Calib.sample () in
  let speed = Calib.speed !last c in
  last := c;
  (r, speed)

let pass_host_s p = secs (isum (fun o -> o.host_ns) p)

(* Calibrated cost of one tag-permitted local read on a warm machine. *)
let local_read_ns () =
  let m = Machine.create (Machine.default_config ~num_nodes:1 ()) in
  let a = Machine.alloc m ~words:64 ~home:0 in
  let reads = 1_000_000 in
  let round () =
    let t0 = now () in
    for k = 1 to reads do
      ignore (Sys.opaque_identity (Machine.read m ~node:0 (a + (k land 63))))
    done;
    float_of_int (now () - t0) /. float_of_int reads
  in
  ignore (round ());
  Report.median (Array.init 5 (fun _ -> round ()))

(* The per-layer metrics every workload shares.  [c] is one pass's
   simulated counts, [l] the traced passes' mean layer split and [create_s]
   their mean [Runtime.create] time; [base_s] is the traced time those two
   must account for.  The residual, the share of [base_s] outside
   [create_s] and the app closures, must stay within [bound]; [fail] is
   called when it does not.  [apps.self_s] is the closures' time minus
   every layer measured inside them. *)
let layer_metrics ~bound ~fail ~(c : counts) ~(l : layers) ~create_s ~base_s ~traced_host_s
    ~overhead ~gc:(minor, major, promoted_mwords) =
  let f = float_of_int in
  let faults = f c.faults and accesses = f c.accesses and blocks = f c.pblocks in
  let ns = local_read_ns () in
  let local_s = (accesses -. faults) *. ns /. 1e9 in
  let residual = 1.0 -. Report.ratio (create_s +. l.closure_s) base_s in
  if Float.abs residual > bound then
    fail (Printf.sprintf "layer residual %.4f is outside its bound %g" residual bound);
  Report.
    [
      m ~kind:Exact "proto.faults" "count" faults;
      m "proto.fault_s" "s" l.fault_s;
      m "proto.fault_us_mean" "us" (ratio l.fault_s faults *. 1e6);
      m "core.presend_s" "s" l.presend_s;
      m "core.phase_end_s" "s" l.commit_s;
      m ~kind:Exact "core.presend_blocks" "count" blocks;
      m ~kind:Exact "core.presend_msgs" "count" (f c.pmsgs);
      m ~kind:Exact "core.sched_records" "count" (f c.precords);
      m ~kind:Exact "core.presend_useful_ratio" "ratio"
        (if blocks = 0.0 then 0.0 else 1.0 -. (f c.pwasted /. blocks));
      m ~kind:Exact "tempest.accesses" "count" accesses;
      m ~kind:Exact "tempest.local_hit_ratio" "ratio" (ratio (accesses -. faults) accesses);
      m ~kind:Exact "tempest.msgs" "count" (f c.msgs);
      m ~kind:Exact "tempest.mbytes" "MB" (f c.bytes /. 1e6);
      m "tempest.local_read_ns" "ns" ns;
      m "tempest.local_s_est" "s" local_s;
      m "apps.self_s" "s"
        (l.closure_s -. l.fault_s -. l.presend_s -. l.commit_s -. l.barrier_s -. local_s);
      m "runtime.create_s" "s" create_s;
      m "runtime.barrier_s" "s" l.barrier_s;
      m ~kind:Exact "runtime.phases" "count" (f c.phases);
      m ~kind:Exact "runtime.tasks" "count" (f c.tasks);
      m "gc.minor_collections" "count" minor;
      m "gc.major_collections" "count" major;
      m "gc.promoted_mwords" "Mword" promoted_mwords;
      m "obs.trace_overhead_ratio" "ratio" overhead;
      m "obs.layer_residual_ratio" "ratio" residual;
      m "obs.traced_host_s" "s" traced_host_s;
    ]

(* The stated residual bound on the sim workloads, where the residual is
   [Measure]'s bookkeeping after the closure returns: about 0.001 of a full
   pass and 0.015 of a self-test pass, whose jobs are short. *)
let residual_bound = 0.05

let run ~size ~seed ~seconds ~trace ~wrong_reference ~zero_bound workload =
  let jl = jobs ~size ~seed workload in
  let last = ref (Calib.sample ()) in
  let su, setup_speed = calibrated last (fun () -> setup ~rounds:5 ~wrong_reference jl) in
  let st =
    {
      jobs = Array.of_list jl;
      refs = su.refs;
      first_sig = Array.make (List.length jl) None;
      attempted = 0;
      failed = 0;
    }
  in
  let njobs = float_of_int (Array.length st.jobs) in
  let metrics =
    if not trace then begin
      let runs = passes ~seconds (fun _ -> calibrated last (fun () -> pass st ~traced:false)) in
      let ps = Array.of_list (List.map fst runs) in
      let speed = Array.of_list (List.map snd runs) in
      let raw = Array.map pass_host_s ps in
      let host_p = Array.mapi (fun i h -> h /. speed.(i)) raw in
      let lat q =
        Array.mapi
          (fun i p ->
            Report.quantile (Array.map (fun o -> float_of_int o.host_ns /. 1e6) p) q /. speed.(i))
          ps
      in
      let c50 = lat 0.5 and c90 = lat 0.9 in
      Report.print_passes
        [ ("speed", speed); ("raw_host_s", raw); ("host_s", host_p); ("cold_ms_p50", c50);
          ("cold_ms_p90", c90) ];
      let host = Report.median host_p in
      let accesses = float_of_int (isum (fun o -> o.counts.accesses) ps.(0)) in
      let gc = Gc.quick_stat () in
      Report.
        [
          m "setup_s" "s" (su.setup_s /. setup_speed);
          m "host_s" "s" host;
          m "sim_maccess_per_s" "Maccess/s" (accesses /. host /. 1e6);
          m "jobs_per_s" "1/s" (njobs /. host);
          m "cold_ms_p50" "ms" (median c50);
          m "cold_ms_p90" "ms" (median c90);
          m "alloc_mwords" "Mword" (median (Array.map (sum (fun o -> o.alloc_words)) ps) /. 1e6);
          m "top_heap_mb" "MB"
            (float_of_int (gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
          m ~kind:Simulated "sim_ms" "sim-ms" (sum (fun o -> o.total_us) ps.(0) /. 1000.0);
        ]
    end
    else begin
      (* Untraced and traced passes alternate, so both see the same host
         conditions; their ratio is the tracing overhead. *)
      let one traced = calibrated last (fun () -> (traced, pass st ~traced)) in
      let ps = passes ~seconds (fun k -> one (k mod 2 = 1)) in
      let ps = if List.exists (fun ((t, _), _) -> t) ps then ps else ps @ [ one true ] in
      let side want =
        Array.of_list (List.filter_map (fun ((t, p), s) -> if t = want then Some (p, s) else None) ps)
      in
      let untraced = Array.map fst (side false) and traced = Array.map fst (side true) in
      (* speed-normalized, so a drift between passes does not read as overhead *)
      let norm_host want = Report.median (Array.map (fun (p, s) -> pass_host_s p /. s) (side want)) in
      let per_traced f = Report.mean (Array.map f traced) in
      let gc f = Report.median (Array.map (sum f) untraced) in
      let fail msg =
        st.failed <- st.failed + 1;
        Printf.eprintf "perfbench: %s: %s\n%!" workload msg
      in
      st.attempted <- st.attempted + 1;
      Report.m "cstar.compile_ms" "ms" su.compile_ms
      :: layer_metrics ~bound:(if zero_bound then 0.0 else residual_bound) ~fail
           ~c:(sum_counts (Array.to_list (Array.map (fun o -> o.counts) traced.(0))))
           ~l:
             (layers_of (fun k ->
                  per_traced (fun p ->
                      sum (fun o -> List.assoc k (layer_fields (Option.get o.layers))) p)))
           ~create_s:(per_traced (fun p -> secs (isum (fun o -> o.create_ns) p)))
           ~base_s:(per_traced pass_host_s) ~traced_host_s:(per_traced pass_host_s)
           ~overhead:(Report.ratio (norm_host true) (norm_host false))
           ~gc:
             ( gc (fun o -> float_of_int o.minor_gcs),
               gc (fun o -> float_of_int o.major_gcs),
               gc (fun o -> o.promoted_words) /. 1e6 )
    end
  in
  (metrics, st.attempted, st.failed)
