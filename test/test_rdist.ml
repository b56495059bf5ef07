(* Reuse-distance predictor suite: the Fenwick stack-distance collector
   differentially pinned against a brute-force LRU stack, profile
   byte-stability across step-job counts, the profile JSON golden, predict
   determinism, and the cross-validation harness's positive and negative
   pins (a perturbed model constant must fail — the oracle has teeth).

   To update the profile golden:
     CCDSM_UPDATE_GOLDEN=1 dune runtest
     cp _build/default/test/golden-new/*.profile.json test/golden/ *)

open Ccdsm_util
module Machine = Ccdsm_tempest.Machine
module Runtime = Ccdsm_runtime.Runtime
module Shared_heap = Ccdsm_runtime.Shared_heap
module Stack_dist = Ccdsm_rdist.Stack_dist
module Profile = Ccdsm_rdist.Profile
module Model = Ccdsm_rdist.Model
module PC = Ccdsm_harness.Predict_check

let check = Alcotest.check
let _ = ignore Ascii.table

(* -- Fenwick vs brute force ------------------------------------------------ *)

(* An op stream over a small key space so duplicates and re-references are
   common; one value is reserved as a phase reset. *)
let reset_marker = 25

let qcheck_fenwick =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400 ~name:"stack distance: fenwick equals brute force"
       QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 reset_marker))
       (fun ops ->
         let fast = Stack_dist.create () in
         let slow = Stack_dist.Naive.create () in
         List.for_all
           (fun op ->
             if op = reset_marker then begin
               Stack_dist.reset fast;
               Stack_dist.Naive.reset slow;
               true
             end
             else
               Stack_dist.access fast op = Stack_dist.Naive.access slow op
               && Stack_dist.distinct fast = Stack_dist.Naive.distinct slow)
           ops))

(* A long deterministic trace (20k accesses over 300 keys) to push the
   Fenwick slot space through its in-place compaction, which short qcheck
   traces never reach. *)
let test_fenwick_compaction () =
  let fast = Stack_dist.create () in
  let slow = Stack_dist.Naive.create () in
  let state = ref 12345 in
  for i = 0 to 19_999 do
    state := ((!state * 1103515245) + 12721) land 0x3FFFFFFF;
    let k = !state mod 300 in
    if i mod 4096 = 4095 then begin
      Stack_dist.reset fast;
      Stack_dist.Naive.reset slow
    end
    else begin
      let df = Stack_dist.access fast k in
      let ds = Stack_dist.Naive.access slow k in
      if df <> ds then Alcotest.failf "access %d (key %d): fenwick %d, naive %d" i k df ds
    end
  done;
  check Alcotest.int "distinct" (Stack_dist.Naive.distinct slow) (Stack_dist.distinct fast)

(* -- profile stability ----------------------------------------------------- *)

let collect_jacobi () =
  let app = List.find (fun a -> a.PC.app_name = "jacobi") (PC.apps ()) in
  let cfg = Machine.default_config ~num_nodes:app.PC.app_nodes ~block_bytes:32 () in
  let rt = Runtime.create ~cfg ~protocol:Runtime.Stache () in
  let profile, () =
    Profile.collect ~app:"jacobi" ~protocol:"stache"
      ~arena_blocks:(Shared_heap.arena_blocks (Runtime.heap rt))
      (Runtime.machine rt)
      (fun () -> app.PC.app_run rt)
  in
  profile

let test_profile_json_roundtrip () =
  let p = collect_jacobi () in
  let json = Profile.to_json p in
  match Profile.of_json json with
  | Error msg -> Alcotest.failf "round-trip decode failed: %s" msg
  | Ok p' -> check Alcotest.string "re-encoded bytes" json (Profile.to_json p')

(* A hostile file of 1 MiB of '[' is refused at the nesting limit, at once:
   no deep recursion, no scan to the end of the input. *)
let test_profile_nesting_bounded () =
  let t0 = Unix.gettimeofday () in
  let r = Profile.of_json (String.make (1 lsl 20) '[') in
  let dt = Unix.gettimeofday () -. t0 in
  (match r with
  | Ok _ -> Alcotest.fail "accepted"
  | Error msg ->
      check Alcotest.string "names the limit and the offset"
        "invalid profile: nesting deeper than 64 at byte 64" msg);
  Alcotest.(check bool) "returns at once" true (dt < 0.5)

(* [Profile.of_json] refuses a profile the model would index out of
   bounds: each case edits the jacobi profile to break one rule. *)
let jacobi_profile = lazy (collect_jacobi ())

let rejects edits () =
  List.iter
    (fun (edit, msg) ->
      match Profile.of_json (Profile.to_json (edit (Lazy.force jacobi_profile))) with
      | Ok _ -> Alcotest.failf "accepted; want %s" msg
      | Error e -> check Alcotest.string "error" ("invalid profile: " ^ msg) e)
    edits

(* Replace the first event matching [f] (which returns [Some replacement]). *)
let edit_event f (p : Profile.t) =
  let hit = ref false in
  let segments =
    Array.map
      (fun (s : Profile.segment) ->
        let events =
          Array.map
            (fun ev ->
              match (!hit, f ev) with
              | false, Some ev' ->
                  hit := true;
                  ev'
              | _ -> ev)
            s.Profile.events
        in
        { s with Profile.events })
      p.Profile.segments
  in
  if not !hit then Alcotest.fail "no event to edit";
  { p with Profile.segments }

let test_profile_rejects_nodes =
  rejects
    [
      ((fun p -> { p with Profile.nodes = 0 }), {|field "nodes": 0 is outside [1, 1024]|});
      ((fun p -> { p with Profile.nodes = 1025 }), {|field "nodes": 1025 is outside [1, 1024]|});
    ]

let test_profile_rejects_block_bytes =
  rejects
    (List.map
       (fun b ->
         ( (fun p -> { p with Profile.block_bytes = b }),
           Printf.sprintf {|field "block_bytes": %d is not a power of two >= 8|} b ))
       [ 0; 4; 24 ])

let test_profile_rejects_event_nodes =
  rejects
    [
      ( edit_event (function
          | Profile.Alloc a -> Some (Profile.Alloc { a with home = 4 })
          | _ -> None),
        "segment 0: alloc home 4 is not below 4 nodes" );
      ( edit_event (function
          | Profile.Run r -> Some (Profile.Run { r with node = 4 })
          | _ -> None),
        "segment 1: run node 4 is not below 4 nodes" );
      ( edit_event (function
          | Profile.Run r -> Some (Profile.Run { r with node = -1 })
          | _ -> None),
        "segment 1: run node -1 is not below 4 nodes" );
    ]

let test_profile_rejects_stray_runs =
  let run addr stride count =
    edit_event (function
      | Profile.Run r -> Some (Profile.Run { r with addr; stride; count })
      | _ -> None)
  in
  rejects
    [
      (run 32 1 1, "segment 1: run of 1 words at 32 (stride 1) outside the 32 words allocated");
      (run 30 1 3, "segment 1: run of 3 words at 30 (stride 1) outside the 32 words allocated");
      (run 1 (-1) 3, "segment 1: run of 3 words at 1 (stride -1) outside the 32 words allocated");
      ( run 0 max_int 3,
        Printf.sprintf "segment 1: run of 3 words at 0 (stride %d) outside the 32 words allocated"
          max_int );
      (run 0 1 0, "segment 1: run of 0 words at 0 (stride 1) outside the 32 words allocated");
    ]

(* -- golden ---------------------------------------------------------------- *)

let update_golden = Sys.getenv_opt "CCDSM_UPDATE_GOLDEN" <> None

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden name actual =
  if update_golden then begin
    if not (Sys.file_exists "golden-new") then Sys.mkdir "golden-new" 0o755;
    let path = Filename.concat "golden-new" name in
    let oc = open_out_bin path in
    output_string oc actual;
    close_out oc;
    Printf.printf "golden updated: %s (copy back to test/golden/)\n" path
  end
  else begin
    let path = Filename.concat "golden" name in
    if not (Sys.file_exists path) then
      Alcotest.failf "missing golden file %s (run with CCDSM_UPDATE_GOLDEN=1)" path;
    check Alcotest.(list string) name
      (String.split_on_char '\n' (read_file path))
      (String.split_on_char '\n' actual)
  end

let test_golden_profile () =
  check_golden "jacobi_stache.profile.json" (Profile.to_json (collect_jacobi ()))

(* -- prediction determinism ------------------------------------------------ *)

let jacobi_app () = List.find (fun a -> a.PC.app_name = "jacobi") (PC.apps ())

let test_predict_deterministic () =
  let protocol = Model.Predictive { coalesce = true; conflict_action = `Ignore } in
  let profile = PC.collect_profile (jacobi_app ()) ~block_bytes:32 ~protocol in
  let net = Ccdsm_tempest.Network.default in
  let run () =
    List.map
      (fun block_bytes ->
        match Model.predict profile ~net ~block_bytes ~protocol with
        | Ok pred -> pred
        | Error msg -> Alcotest.failf "predict %dB: %s" block_bytes msg)
      [ 32; 64; 128; 256 ]
  in
  if run () <> run () then Alcotest.fail "two predict runs differ"

(* prepare + eval is the predictor's warm path (the serve grid); it must
   produce the same prediction as one-shot predict. *)
let test_prepare_eval_equals_predict () =
  let protocol = Model.Stache in
  let profile = PC.collect_profile (jacobi_app ()) ~block_bytes:32 ~protocol in
  let net = Ccdsm_tempest.Network.default in
  let pr =
    match Model.prepare profile ~net ~protocol with
    | Ok pr -> pr
    | Error msg -> Alcotest.failf "prepare: %s" msg
  in
  List.iter
    (fun block_bytes ->
      match (Model.eval pr ~block_bytes, Model.predict profile ~net ~block_bytes ~protocol) with
      | Ok a, Ok b -> if a <> b then Alcotest.failf "eval and predict disagree at %dB" block_bytes
      | Error msg, _ | _, Error msg -> Alcotest.failf "%dB: %s" block_bytes msg)
    [ 32; 128; 512 ]

let test_eval_rejects_bad_block () =
  let protocol = Model.Stache in
  let profile = PC.collect_profile (jacobi_app ()) ~block_bytes:32 ~protocol in
  let pr =
    match Model.prepare profile ~net:Ccdsm_tempest.Network.default ~protocol with
    | Ok pr -> pr
    | Error msg -> Alcotest.failf "prepare: %s" msg
  in
  (match Model.eval pr ~block_bytes:48 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "48B accepted");
  match Model.eval pr ~block_bytes:4 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "4B accepted"

(* -- cross-validation pins ------------------------------------------------- *)

let test_validate_quick_passes () =
  let report = PC.validate ~quick:true () in
  if not report.PC.pass then Alcotest.failf "cross-validation failed:\n%s" report.PC.text;
  check Alcotest.int "cells" 12 (List.length report.PC.cells)

(* The negative test: a model deliberately corrupted by a constant fault
   offset must fail the bands — proof the oracle can reject. *)
let test_validate_perturbed_fails () =
  let report = PC.validate ~quick:true ~fudge_faults:10 () in
  if report.PC.pass then Alcotest.fail "perturbed model passed cross-validation (bands have no teeth)"

(* Same for the wall-clock side: shifting every segment's predicted
   remote-wait time by a constant must trip the bucket bands and the
   bit-for-bit base-block check. *)
let test_validate_wall_perturbed_fails () =
  let report = PC.validate ~quick:true ~fudge_wait_us:500.0 () in
  if report.PC.pass then
    Alcotest.fail "wait-perturbed model passed cross-validation (wall bands have no teeth)"

let suite =
  [
    ( "rdist",
      [
        qcheck_fenwick;
        Alcotest.test_case "fenwick compaction vs brute force" `Quick test_fenwick_compaction;
        Alcotest.test_case "profile JSON round-trip" `Quick test_profile_json_roundtrip;
        Alcotest.test_case "profile nesting bounded" `Quick test_profile_nesting_bounded;
        Alcotest.test_case "profile rejects nodes out of range" `Quick test_profile_rejects_nodes;
        Alcotest.test_case "profile rejects bad block_bytes" `Quick
          test_profile_rejects_block_bytes;
        Alcotest.test_case "profile rejects event nodes" `Quick test_profile_rejects_event_nodes;
        Alcotest.test_case "profile rejects runs outside allocations" `Quick
          test_profile_rejects_stray_runs;
        Alcotest.test_case "golden: jacobi stache profile" `Quick test_golden_profile;
        Alcotest.test_case "predict deterministic" `Quick test_predict_deterministic;
        Alcotest.test_case "prepare+eval = predict" `Quick test_prepare_eval_equals_predict;
        Alcotest.test_case "eval rejects bad block sizes" `Quick test_eval_rejects_bad_block;
        Alcotest.test_case "cross-validation quick grid passes" `Slow test_validate_quick_passes;
        Alcotest.test_case "perturbed model fails validation" `Slow test_validate_perturbed_fails;
        Alcotest.test_case "wait-perturbed model fails validation" `Slow
          test_validate_wall_perturbed_fails;
      ] );
  ]
