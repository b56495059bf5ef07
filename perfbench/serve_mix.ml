(* The serve-mix workload: one client connection with one request
   outstanding (closed loop) against a fresh in-process [Server] with one
   pool domain and its request log on.  One connection and one domain keep
   each request's cost independent of what else is in flight, so runs of
   different seeds compare.

   Runner's profile and grid tables are process-global and survive
   [Server.stop], so every pass runs in a fresh child process (this
   executable re-run with --serve-pass) with its own socket and log path;
   the child asserts [Runner.profile_count () = 0] before its first request.
   The daemon gets this file's reduced app table through
   [Server.config.apps], so a cold job costs tens of milliseconds. *)

module Machine = Ccdsm_tempest.Machine
module Network = Ccdsm_tempest.Network
module Runtime = Ccdsm_runtime.Runtime
module Shared_heap = Ccdsm_runtime.Shared_heap
module Server = Ccdsm_serve.Server
module Runner = Ccdsm_serve.Runner
module Job = Ccdsm_serve.Job
module Profile = Ccdsm_rdist.Profile
module Model = Ccdsm_rdist.Model
module Obs = Ccdsm_obs.Obs
open Ccdsm_apps

let now = Layer_clock.now
let secs ns = float_of_int ns /. 1e9
let ms ns = float_of_int ns /. 1e6
let domains = 1
let calib_every = 25
let run_dir = Filename.concat "perfbench" ".run"

(* -- the reduced app table --------------------------------------------------- *)

let app_configs ~seed =
  ( { Adaptive.small with Adaptive.seed },
    { Barnes.small with Barnes.seed },
    { Water.small with Water.seed } )

let app_names = [ "adaptive"; "barnes"; "water" ]

let reference ~seed ~nodes app =
  let a, b, w = app_configs ~seed in
  match app with
  | "adaptive" -> (Adaptive.reference a).Adaptive.checksum
  | "barnes" -> (Barnes.reference b).Barnes.checksum
  | _ -> (Water.reference ~nodes w).Water.checksum

(* What one app-closure invocation inside the daemon simulated (and, when
   traced, where its host time went). *)
type record = { r_key : string; counts : Sim.counts; total_us : float; layers : Sim.layers option }

let records = ref []
let records_mutex = Mutex.create ()

let apps ~seed ~traced : Runner.app list =
  let a, b, w = app_configs ~seed in
  let wrap name races run =
    ( name,
      races,
      fun rt ->
        let checksum, layers = Sim.instrumented ~traced run rt in
        let m = Runtime.machine rt in
        let r =
          {
            r_key =
              Printf.sprintf "%s/%s/%d/%d" name (Runtime.protocol_name (Runtime.protocol rt))
                (Machine.num_nodes m) (Machine.block_bytes m);
            counts = Sim.counts rt;
            total_us = Runtime.total_time rt;
            layers;
          }
        in
        Mutex.lock records_mutex;
        records := r :: !records;
        Mutex.unlock records_mutex;
        checksum )
  in
  [
    wrap "adaptive" true (fun rt -> (Adaptive.run rt a).Adaptive.checksum);
    (* Barnes' tree build is a legitimate multi-writer phase. *)
    wrap "barnes" false (fun rt -> (Barnes.run rt b).Barnes.checksum);
    wrap "water" true (fun rt -> (Water.run rt w).Water.checksum);
  ]

(* -- the seeded request sequence --------------------------------------------- *)

type cls = Cold_sim | Hit | Predict_cold | Predict

type req = { cls : cls; spec : string; app : string; nodes : int }

let grid size =
  match size with
  | Sim.Full -> ([ 4; 8 ], [ 32; 256 ])
  | Sim.Tiny -> ([ 4 ], [ 32 ])

let predict_blocks = List.init 14 (fun i -> 8 lsl i)

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* Four parts.  The cold predicts, one per (app, nodes), go first and in a
   fixed order: each collects a profile and precomputes its block grid, and
   the daemon's peak heap is set while they run (about 26 MB, against
   13.5 MB live at the end of a pass).  In seeded order that peak moved
   between 22 and 29 MB with the order alone, so [top_heap_mb] measured the
   order, not the program.  The other three parts are then interleaved at
   random from the seed, with weights proportional to what is left of
   each: cold sim jobs over every registered protocol and the node/block
   grid; warm predicts over the rest of the block grid; and one repeat of
   every spec computed so far (a cache hit), as the serve smoke test in CI
   submits its job grid twice, so half the requests are hits.  The client
   is one closed-loop connection, so every earlier request has been
   answered when the next one goes out: a repeat is always a hit and a warm
   predict always finds its grid. *)
let sequence ~size ~seed =
  let st = Random.State.make [| seed; 0x5e7e |] in
  let nodes_l, blocks_l = grid size in
  let sim_spec app protocol nodes bb =
    Printf.sprintf {|"app":"%s","protocol":"%s","nodes":%d,"block_bytes":%d|} app protocol nodes bb
  in
  let pred_spec app nodes bb =
    Printf.sprintf {|"kind":"predict","app":"%s","protocol":"predictive","nodes":%d,"block_bytes":%d|}
      app nodes bb
  in
  let for_each_app_nodes f =
    List.concat_map (fun app -> List.concat_map (fun nodes -> f app nodes) nodes_l) app_names
  in
  let cold =
    ref
      (shuffle st
         (for_each_app_nodes (fun app nodes ->
              List.concat_map
                (fun protocol ->
                  List.map
                    (fun bb -> { cls = Cold_sim; spec = sim_spec app protocol nodes bb; app; nodes })
                    blocks_l)
                (Runtime.protocol_names ()))))
  in
  let pcold =
    for_each_app_nodes (fun app nodes ->
        [ { cls = Predict_cold; spec = pred_spec app nodes 32; app; nodes } ])
  in
  let warm =
    ref
      (List.concat_map
         (fun r ->
           List.filter_map
             (fun bb ->
               if bb = 32 then None else Some { r with cls = Predict; spec = pred_spec r.app r.nodes bb })
             predict_blocks)
         pcold)
  in
  let unrepeated = ref [] and out = ref [] in
  let emit r =
    out := r :: !out;
    if r.cls <> Hit then unrepeated := { r with cls = Hit } :: !unrepeated
  in
  let pick l =
    let n = Random.State.int st (List.length !l) in
    let x = List.nth !l n in
    l := List.filteri (fun i _ -> i <> n) !l;
    x
  in
  List.iter emit pcold;
  let parts = [ cold; warm; unrepeated ] in
  let total () = List.fold_left (fun a l -> a + List.length !l) 0 parts in
  while total () > 0 do
    let k = ref (Random.State.int st (total ())) in
    let part =
      List.find
        (fun l ->
          let w = List.length !l in
          if !k < w then true
          else begin
            k := !k - w;
            false
          end)
        parts
    in
    emit (pick part)
  done;
  Array.of_list (List.rev !out)

let line i r = Printf.sprintf "{\"id\":%d,%s}" i r.spec

(* -- response parsing -------------------------------------------------------- *)

let find_sub s sub from =
  let n = String.length s and k = String.length sub in
  let rec go i = if i + k > n then None else if String.sub s i k = sub then Some i else go (i + 1) in
  go from

(* The text after ["field":] up to the next ',' or '}' (or quote for a
   string value). *)
let field s name =
  match find_sub s (Printf.sprintf "\"%s\":" name) 0 with
  | None -> None
  | Some i ->
      let j = i + String.length name + 3 in
      if j < String.length s && s.[j] = '"' then
        Option.map (fun e -> String.sub s (j + 1) (e - j - 1)) (String.index_from_opt s (j + 1) '"')
      else
        let e = ref j in
        while !e < String.length s && s.[!e] <> ',' && s.[!e] <> '}' do
          incr e
        done;
        Some (String.sub s j (!e - j))

let result_part s =
  match find_sub s "\"result\":" 0 with
  | Some i when String.length s > 0 && s.[String.length s - 1] = '}' ->
      Some (String.sub s (i + 9) (String.length s - i - 10))
  | _ -> None

(* -- one pass, in a fresh process -------------------------------------------- *)

let fail_msg failed msg =
  incr failed;
  Printf.eprintf "perfbench: serve-mix: %s\n%!" msg

let child ~size ~seed ~traced ~wrong_reference =
  ignore (Unix.alarm 150);
  let c0 = Calib.sample () in
  let t_setup = now () in
  let seq = sequence ~size ~seed in
  let nodes_l, _ = grid size in
  let refs =
    List.concat_map
      (fun app ->
        List.map
          (fun nodes ->
            let r = reference ~seed ~nodes app in
            ((app, nodes), Obs.float_to_string (if wrong_reference then r +. 1.0 else r)))
          nodes_l)
      app_names
  in
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let base = Filename.concat run_dir (string_of_int (Unix.getpid ())) in
  let sock = base ^ ".sock" and log = base ^ ".log" in
  (try Sys.remove sock with Sys_error _ -> ());
  (try Sys.remove log with Sys_error _ -> ());
  let cfg =
    {
      (Server.default_config ~socket:(`Unix sock) ()) with
      Server.domains = domains;
      log = Some log;
      apps = Some (apps ~seed ~traced);
    }
  in
  let srv = Server.start cfg in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let ic = Unix.in_channel_of_descr fd in
  let setup_s = secs (now () - t_setup) in
  let failed = ref 0 in
  if Runner.profile_count () <> 0 then fail_msg failed "runner profiles not empty at start";
  let n = Array.length seq in
  let rtt = Array.make n 0 and resp = Array.make n "" in
  (* The daemon is idle between two requests of a closed loop, so the
     calibration kernel runs there, every [calib_every] requests: the speed
     factor then follows the host through the pass, not just at its edges.
     The pass time is the summed round trips, which leaves the kernel out. *)
  let calib = ref [ c0 ] in
  let g0 = Gc.quick_stat () in
  Array.iteri
    (fun i r ->
      if i > 0 && i mod calib_every = 0 then calib := Calib.once () :: !calib;
      let l = line i r ^ "\n" in
      let t = now () in
      ignore (Unix.write_substring fd l 0 (String.length l));
      resp.(i) <- input_line ic;
      rtt.(i) <- now () - t)
    seq;
  let host_ns = Array.fold_left ( + ) 0 rtt in
  let g1 = Gc.quick_stat () in
  let calib = Calib.sample () :: !calib in
  Unix.close fd;
  Server.stop srv;
  (* -- the correctness gate -- *)
  let miss_result = Hashtbl.create 256 in
  Array.iteri
    (fun i r ->
      let req = seq.(i) in
      match (field r "status", field r "cache", field r "key", result_part r) with
      | Some "ok", Some cache, Some key, Some result -> (
          let want = if req.cls = Hit then "hit" else "miss" in
          if cache <> want then fail_msg failed (Printf.sprintf "request %d: cache %s, want %s" i cache want);
          (match (req.cls, Hashtbl.find_opt miss_result key) with
          | Hit, Some m when m <> result -> fail_msg failed (Printf.sprintf "request %d: hit differs from miss" i)
          | Hit, _ -> ()
          | _, _ -> Hashtbl.replace miss_result key result);
          match field result "checksum" with
          | Some cs ->
              let want = List.assoc (req.app, req.nodes) refs in
              if cs <> want then
                fail_msg failed (Printf.sprintf "request %d: checksum %s, reference %s" i cs want)
          | None -> ())
      | _ -> fail_msg failed (Printf.sprintf "request %d: %s" i r))
    resp;
  (* -- the request log -- *)
  let logged = Hashtbl.create n in
  let ic = open_in log in
  (try
     while true do
       let l = input_line ic in
       match (field l "id", field l "queue_wait_us", field l "run_us") with
       | Some id, Some q, Some r ->
           Hashtbl.replace logged (int_of_string id) (float_of_string q, float_of_string r)
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  (try Sys.remove log with Sys_error _ -> ());
  let qr i = Option.value (Hashtbl.find_opt logged i) ~default:(0.0, 0.0) in
  let of_cls c = List.filter (fun i -> seq.(i).cls = c) (List.init n Fun.id) in
  let lat c = Array.of_list (List.map (fun i -> ms rtt.(i)) (of_cls c)) in
  let misses = List.filter (fun i -> seq.(i).cls <> Hit) (List.init n Fun.id) in
  let run_us = List.fold_left (fun a i -> a +. snd (qr i)) 0.0 misses in
  let recs = List.sort (fun a b -> compare a.r_key b.r_key) !records in
  let counts = Sim.sum_counts (List.map (fun r -> r.counts) recs) in
  let layers = Sim.sum_layers (List.filter_map (fun r -> r.layers) recs) in
  let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.sort compare (Hashtbl.fold (fun k v acc -> (k ^ " " ^ v) :: acc) miss_result []))))
  in
  let scalars =
    [
      ("setup_s", setup_s);
      ("speed", Report.mean (Array.of_list calib) /. Calib.reference_s);
      ("host_s", secs host_ns);
      ("requests", float_of_int n);
      ("failed", float_of_int !failed);
      ("sim_ms", List.fold_left (fun a r -> a +. r.total_us) 0.0 recs /. 1000.0);
      ("alloc_mwords", (words g1 -. words g0) /. 1e6);
      ("top_heap_mb", float_of_int (g1.top_heap_words * (Sys.word_size / 8)) /. 1e6);
      ("gc_minor", float_of_int (g1.minor_collections - g0.minor_collections));
      ("gc_major", float_of_int (g1.major_collections - g0.major_collections));
      ("gc_promoted_mwords", (g1.promoted_words -. g0.promoted_words) /. 1e6);
      ("busy_ratio", run_us /. (float_of_int domains *. float_of_int host_ns /. 1e3));
      ("hit_ratio", float_of_int (List.length (of_cls Hit)) /. float_of_int n);
      ("run_s", run_us /. 1e6);
    ]
    @ List.map (fun (k, v) -> (k, float_of_int v)) (Sim.count_fields counts)
    @ Sim.layer_fields layers
  in
  let vectors =
    [
      ("cold_ms", lat Cold_sim);
      ("hit_ms", lat Hit);
      ("predict_ms", lat Predict);
      ("predict_cold_ms", lat Predict_cold);
      ( "io_us",
        Array.init n (fun i ->
            let q, r = qr i in
            (float_of_int rtt.(i) /. 1e3) -. q -. r) );
      ("queue_wait_ms", Array.of_list (List.map (fun i -> fst (qr i) /. 1e3) misses));
      ("run_ms", Array.of_list (List.map (fun i -> snd (qr i) /. 1e3) misses));
    ]
  in
  Printf.printf "digest %s\n" digest;
  List.iter (fun (k, v) -> Printf.printf "%s %.17g\n" k v) scalars;
  List.iter
    (fun (k, a) ->
      Printf.printf "%s%s\n" k
        (String.concat "" (Array.to_list (Array.map (Printf.sprintf " %.17g") a))))
    vectors;
  exit 0

(* -- the parent: passes, aggregation, per-layer extras ----------------------- *)

type child_pass = { digest : string; values : (string, float array) Hashtbl.t }

let get p k = match Hashtbl.find_opt p.values k with Some a -> a | None -> [||]
let scalar p k = match get p k with [| v |] -> v | _ -> 0.0

let spawn ~size ~seed ~traced ~wrong_reference =
  let args =
    [ Sys.executable_name; "--serve-pass"; "--workload"; "serve-mix"; "--seed"; string_of_int seed;
      "--trace"; (if traced then "1" else "0") ]
    @ (if size = Sim.Tiny then [ "--tiny" ] else [])
    @ if wrong_reference then [ "--wrong-reference" ] else []
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let values = Hashtbl.create 64 and digest = ref "" in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | [ "digest"; d ] -> digest := d
       | k :: vs -> Hashtbl.replace values k (Array.of_list (List.map float_of_string vs))
       | [] -> ()
     done
   with End_of_file -> ());
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 when !digest <> "" -> Some { digest = !digest; values }
  | _ -> None

let pooled ps k = Array.concat (List.map (fun p -> get p k) ps)
let med ps f = Report.median (Array.of_list (List.map f ps))

(* Direct calls into lib/rdist on the reduced apps, as a predict job makes
   them: one profile collection, one prepare and a 14-point eval grid per
   app at 8 nodes. *)
let rdist_layer ~seed =
  let prof = ref 0.0 and prep = ref 0.0 and evals = ref [] in
  List.iter
    (fun (name, _, run) ->
      let cfg = Machine.default_config ~num_nodes:8 ~block_bytes:32 () in
      let rt = Runtime.create ~cfg ~protocol:Runtime.Stache () in
      let t0 = now () in
      let profile, _ =
        Profile.collect ~app:name ~protocol:"stache"
          ~arena_blocks:(Shared_heap.arena_blocks (Runtime.heap rt))
          (Runtime.machine rt)
          (fun () -> ignore (run rt))
      in
      let t1 = now () in
      let protocol = Result.get_ok (Model.protocol_of_name "predictive") in
      let pr = Result.get_ok (Model.prepare profile ~net:Network.default ~protocol) in
      let t2 = now () in
      prof := !prof +. secs (t1 - t0);
      prep := !prep +. ms (t2 - t1);
      List.iter
        (fun bb ->
          let t = now () in
          ignore (Result.get_ok (Model.eval pr ~block_bytes:bb));
          evals := (float_of_int (now () - t) /. 1e3) :: !evals)
        predict_blocks)
    (apps ~seed ~traced:false);
  (!prof, !prep, Report.median (Array.of_list !evals))

let parse_us_p50 seq =
  Report.median
    (Array.mapi
       (fun i r ->
         let l = line i r in
         let t = now () in
         ignore (Sys.opaque_identity (Job.parse l));
         float_of_int (now () - t) /. 1e3)
       seq)

(* [Runtime.create] as the daemon's cold sim jobs call it (sanitized), one
   per cold spec of a pass. *)
let create_s ~size ~seed =
  let seq = sequence ~size ~seed in
  let t = now () in
  Array.iter
    (fun r ->
      if r.cls = Cold_sim then
        match field ("{" ^ r.spec ^ "}") "protocol", field ("{" ^ r.spec ^ "}") "block_bytes" with
        | Some p, Some bb ->
            let cfg = Machine.default_config ~num_nodes:r.nodes ~block_bytes:(int_of_string bb) () in
            ignore
              (Sys.opaque_identity
                 (Runtime.create ~cfg ~sanitize:true
                    ~protocol:(Result.get_ok (Runtime.protocol_of_name p))
                    ()))
        | _ -> ())
    seq;
  secs (now () - t)

(* The stated residual bound on serve-mix.  Pool domains run in parallel,
   so the base the layers must account for is the traced passes' logged
   pool run time, not wall time; the residual there is the differential
   harness, sanitizer set-up and predict lookups outside the app closures. *)
let residual_bound = 0.3

let run ~size ~seed ~seconds ~trace ~wrong_reference ~zero_bound =
  let failed = ref 0 and attempted = ref 0 in
  let one traced =
    match spawn ~size ~seed ~traced ~wrong_reference with
    | Some p ->
        attempted := !attempted + int_of_float (scalar p "requests");
        failed := !failed + int_of_float (scalar p "failed");
        (traced, p)
    | None ->
        prerr_endline "perfbench: serve-mix: a pass process failed";
        exit 1
  in
  let ps = Sim.passes ~seconds (fun k -> one (trace && k mod 2 = 1)) in
  let ps = if trace && not (List.exists fst ps) then ps @ [ one true ] else ps in
  (* Every pass ran the same seeded sequence: results and simulated time
     must agree exactly. *)
  let first = snd (List.hd ps) in
  List.iter
    (fun (_, p) ->
      if p.digest <> first.digest || scalar p "sim_ms" <> scalar first "sim_ms" then begin
        incr failed;
        prerr_endline "perfbench: serve-mix: passes of one seed disagree"
      end)
    ps;
  let untraced = List.filter_map (fun (t, p) -> if t then None else Some p) ps in
  let traced = List.filter_map (fun (t, p) -> if t then Some p else None) ps in
  let all = List.map snd ps in
  let metrics =
    if not trace then
      (* every timing at the reference host speed (see calib.ml) *)
      let per f = Array.of_list (List.map (fun (_, p) -> f p /. scalar p "speed") ps) in
      let host_p = per (fun p -> scalar p "host_s") in
      let c50 = per (fun p -> Report.quantile (get p "cold_ms") 0.5) in
      let c90 = per (fun p -> Report.quantile (get p "cold_ms") 0.9) in
      Report.print_passes
        [ ("speed", Array.of_list (List.map (fun p -> scalar p "speed") all));
          ("raw_host_s", Array.of_list (List.map (fun p -> scalar p "host_s") all));
          ("host_s", host_p); ("cold_ms_p50", c50); ("cold_ms_p90", c90);
          ("top_heap_mb", Array.of_list (List.map (fun p -> scalar p "top_heap_mb") all)) ];
      let host = Report.median host_p in
      Report.
        [
          m "setup_s" "s" (median (per (fun p -> scalar p "setup_s")));
          m "host_s" "s" host;
          m "sim_maccess_per_s" "Maccess/s" (scalar first "accesses" /. host /. 1e6);
          m "jobs_per_s" "1/s" (scalar first "requests" /. host);
          m "cold_ms_p50" "ms" (median c50);
          m "cold_ms_p90" "ms" (median c90);
          m "alloc_mwords" "Mword" (med all (fun p -> scalar p "alloc_mwords"));
          m "top_heap_mb" "MB" (med all (fun p -> scalar p "top_heap_mb"));
          m ~kind:Simulated "sim_ms" "sim-ms" (scalar first "sim_ms");
        ]
    else begin
      let lay k = Report.mean (Array.of_list (List.map (fun p -> scalar p k) traced)) in
      let t0 = List.hd traced in
      let prof_s, prep_ms, eval_us = rdist_layer ~seed in
      let hit = pooled untraced "hit_ms" and pred = pooled untraced "predict_ms" in
      let norm p = scalar p "host_s" /. scalar p "speed" in
      let fail msg =
        incr failed;
        prerr_endline ("perfbench: serve-mix: " ^ msg)
      in
      incr attempted;
      Sim.layer_metrics ~bound:(if zero_bound then 0.0 else residual_bound) ~fail
        ~c:(Sim.counts_of (fun k -> int_of_float (scalar t0 k)))
        ~l:(Sim.layers_of lay) ~create_s:(create_s ~size ~seed) ~base_s:(lay "run_s")
        ~traced_host_s:(med traced (fun p -> scalar p "host_s"))
        ~overhead:(Report.ratio (med traced norm) (med untraced norm))
        ~gc:
          ( med untraced (fun p -> scalar p "gc_minor"),
            med untraced (fun p -> scalar p "gc_major"),
            med untraced (fun p -> scalar p "gc_promoted_mwords") )
      @ Report.
          [
            m "serve.parse_us_p50" "us" (parse_us_p50 (sequence ~size ~seed));
            m "serve.io_us_p50" "us" (quantile (pooled untraced "io_us") 0.5);
            m ~kind:Exact "serve.cache_hit_ratio" "ratio" (scalar t0 "hit_ratio");
            m "serve.hit_ms_p50" "ms" (quantile hit 0.5);
            m "serve.hit_ms_p90" "ms" (quantile hit 0.9);
            m "serve.hit_ms_p99" "ms" (quantile hit 0.99);
            m "serve.predict_ms_p50" "ms" (quantile pred 0.5);
            m "serve.predict_ms_p90" "ms" (quantile pred 0.9);
            m "serve.queue_wait_ms_p50" "ms" (quantile (pooled untraced "queue_wait_ms") 0.5);
            m "serve.queue_wait_ms_p90" "ms" (quantile (pooled untraced "queue_wait_ms") 0.9);
            m "serve.run_ms_p50" "ms" (quantile (pooled untraced "run_ms") 0.5);
            m "pool.busy_ratio" "ratio" (med untraced (fun p -> scalar p "busy_ratio"));
            m "rdist.profile_s" "s" prof_s;
            m "rdist.prepare_ms" "ms" prep_ms;
            m "rdist.eval_us" "us" eval_us;
            m "rdist.predict_cold_ms" "ms" (quantile (pooled untraced "predict_cold_ms") 0.5);
          ]
    end
  in
  (metrics, !attempted, !failed)
