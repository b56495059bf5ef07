(* Tests for the paper's contribution: communication schedules and the
   predictive protocol. *)

open Ccdsm_util
module Machine = Ccdsm_tempest.Machine
module Tag = Ccdsm_tempest.Tag
module Directory = Ccdsm_proto.Directory
module Bulk = Ccdsm_proto.Bulk
module Engine = Ccdsm_proto.Engine
module Coherence = Ccdsm_proto.Coherence
module Schedule = Ccdsm_core.Schedule
module Predictive = Ccdsm_core.Predictive

let check = Alcotest.check
let tag = Alcotest.testable Tag.pp Tag.equal

(* -- Schedule ------------------------------------------------------------- *)

let test_schedule_reads () =
  let s = Schedule.create () in
  Schedule.record_read s 10 ~reader:1;
  Schedule.record_read s 10 ~reader:2;
  Schedule.record_read s 11 ~reader:1;
  check Alcotest.int "entries" 2 (Schedule.cardinal s);
  (match Schedule.find s 10 with
  | Some (Schedule.Readers r) -> check Alcotest.(list int) "readers" [ 1; 2 ] (Nodeset.elements r)
  | _ -> Alcotest.fail "expected Readers");
  check Alcotest.int "no conflicts" 0 (Schedule.conflicts s)

let test_schedule_writer () =
  let s = Schedule.create () in
  Schedule.record_write s 5 ~writer:3;
  (match Schedule.find s 5 with
  | Some (Schedule.Writer 3) -> ()
  | _ -> Alcotest.fail "expected Writer 3");
  (* Same writer again: no rewrite. *)
  Schedule.record_write s 5 ~writer:3;
  check Alcotest.int "no rewrite" 0 (Schedule.rewrites s);
  (* Migration: latest writer wins. *)
  Schedule.record_write s 5 ~writer:1;
  (match Schedule.find s 5 with
  | Some (Schedule.Writer 1) -> ()
  | _ -> Alcotest.fail "expected Writer 1");
  check Alcotest.int "rewrite counted" 1 (Schedule.rewrites s)

let test_schedule_conflict () =
  let s = Schedule.create () in
  Schedule.record_read s 7 ~reader:1;
  Schedule.record_write s 7 ~writer:2;
  (match Schedule.find s 7 with
  | Some (Schedule.Conflict _) -> ()
  | _ -> Alcotest.fail "read-then-write must conflict");
  let s2 = Schedule.create () in
  Schedule.record_write s2 7 ~writer:2;
  Schedule.record_read s2 7 ~reader:1;
  (match Schedule.find s2 7 with
  | Some (Schedule.Conflict _) -> ()
  | _ -> Alcotest.fail "write-then-read must conflict");
  (* Conflict is sticky, and the later collisions keep counting. *)
  Schedule.record_read s2 7 ~reader:3;
  Schedule.record_write s2 7 ~writer:0;
  (match Schedule.find s2 7 with
  | Some (Schedule.Conflict _) -> ()
  | _ -> Alcotest.fail "conflict must be sticky");
  check Alcotest.int "every collision counted" 3 (Schedule.conflicts s2);
  check Alcotest.int "one conflicted block"
    1
    (Schedule.conflicts s2 - Schedule.conflict_hits s2)

let test_schedule_conflict_hits () =
  (* Regression pin: [conflicts] counts EVERY colliding insertion — the
     transition plus later records landing on the already-conflicted block
     (an earlier revision missed the latter).  [conflict_hits] still counts
     just the landings, so conflicted-block count = conflicts - hits. *)
  let s = Schedule.create () in
  Schedule.record_write s 5 ~writer:0;
  Schedule.record_read s 5 ~reader:1;
  check Alcotest.int "transition counted" 1 (Schedule.conflicts s);
  check Alcotest.int "no hits at transition" 0 (Schedule.conflict_hits s);
  Schedule.record_read s 5 ~reader:2;
  Schedule.record_write s 5 ~writer:3;
  check Alcotest.int "later collisions counted too" 3 (Schedule.conflicts s);
  check Alcotest.int "later records counted as hits" 2 (Schedule.conflict_hits s);
  check Alcotest.int "still one conflicted block"
    1
    (Schedule.conflicts s - Schedule.conflict_hits s);
  Schedule.clear s;
  check Alcotest.int "conflicts cleared" 0 (Schedule.conflicts s);
  check Alcotest.int "hits cleared" 0 (Schedule.conflict_hits s)

let test_schedule_corruption_hooks () =
  let s = Schedule.create () in
  Schedule.record_write s 4 ~writer:1;
  Schedule.record_read s 9 ~reader:2;
  check Alcotest.int "nth 0" 4 (Schedule.nth_sorted s 0);
  check Alcotest.int "nth 1" 9 (Schedule.nth_sorted s 1);
  Schedule.set_mark s 4 (Schedule.Readers (Nodeset.singleton 7));
  (match Schedule.find s 4 with
  | Some (Schedule.Readers r) -> check Alcotest.(list int) "retargeted" [ 7 ] (Nodeset.elements r)
  | _ -> Alcotest.fail "expected retargeted Readers");
  Schedule.remove s 9;
  check Alcotest.int "removed" 1 (Schedule.cardinal s);
  check Alcotest.int "sorted cache refreshed" 4 (Schedule.nth_sorted s 0);
  Schedule.remove s 9;
  check Alcotest.int "remove is idempotent" 1 (Schedule.cardinal s)

let test_schedule_pre_conflict () =
  (* Conflicts remember the first stable state before the conflict. *)
  let s = Schedule.create () in
  Schedule.record_read s 7 ~reader:1;
  Schedule.record_read s 7 ~reader:2;
  Schedule.record_write s 7 ~writer:0;
  (match Schedule.find s 7 with
  | Some (Schedule.Conflict (Schedule.Pre_readers r)) ->
      check Alcotest.(list int) "pre-readers kept" [ 1; 2 ] (Nodeset.elements r)
  | _ -> Alcotest.fail "expected conflict with pre-readers");
  let s2 = Schedule.create () in
  Schedule.record_write s2 9 ~writer:3;
  Schedule.record_read s2 9 ~reader:1;
  (match Schedule.find s2 9 with
  | Some (Schedule.Conflict (Schedule.Pre_writer 3)) -> ()
  | _ -> Alcotest.fail "expected conflict with pre-writer 3");
  (* The pre state is the FIRST stable state: later records don't change it. *)
  Schedule.record_write s2 9 ~writer:2;
  (match Schedule.find s2 9 with
  | Some (Schedule.Conflict (Schedule.Pre_writer 3)) -> ()
  | _ -> Alcotest.fail "pre state must be sticky")

let test_schedule_clear () =
  let s = Schedule.create () in
  Schedule.record_read s 1 ~reader:0;
  Schedule.record_write s 2 ~writer:1;
  Schedule.record_read s 2 ~reader:0;
  Schedule.clear s;
  check Alcotest.int "cleared" 0 (Schedule.cardinal s);
  check Alcotest.int "conflicts cleared" 0 (Schedule.conflicts s);
  check Alcotest.bool "find after clear" true (Schedule.find s 1 = None)

let test_schedule_sorted_iteration () =
  let s = Schedule.create () in
  List.iter (fun b -> Schedule.record_read s b ~reader:0) [ 9; 2; 5; 1 ];
  let order = ref [] in
  Schedule.iter_sorted s (fun b _ -> order := b :: !order);
  check Alcotest.(list int) "ascending" [ 1; 2; 5; 9 ] (List.rev !order)

let test_schedule_record_after_flush () =
  (* A flushed schedule rebuilds from scratch: no stale marks, no stale
     conflict or rewrite counts leaking into the new pattern. *)
  let s = Schedule.create () in
  Schedule.record_write s 4 ~writer:0;
  Schedule.record_read s 4 ~reader:2;  (* conflict *)
  Schedule.clear s;
  Schedule.record_read s 4 ~reader:3;
  check Alcotest.int "rebuilt with one entry" 1 (Schedule.cardinal s);
  check Alcotest.int "old conflict gone" 0 (Schedule.conflicts s);
  match Schedule.find s 4 with
  | Some (Schedule.Readers r) ->
      check Alcotest.(list int) "only the new reader" [ 3 ] (Nodeset.elements r)
  | _ -> Alcotest.fail "expected a clean Readers mark after flush"

let test_schedule_duplicate_records_idempotent () =
  let s = Schedule.create () in
  Schedule.record_read s 6 ~reader:1;
  Schedule.record_read s 6 ~reader:1;
  Schedule.record_read s 6 ~reader:1;
  check Alcotest.int "one entry" 1 (Schedule.cardinal s);
  (match Schedule.find s 6 with
  | Some (Schedule.Readers r) -> check Alcotest.(list int) "one reader" [ 1 ] (Nodeset.elements r)
  | _ -> Alcotest.fail "expected Readers");
  Schedule.record_write s 8 ~writer:2;
  Schedule.record_write s 8 ~writer:2;
  check Alcotest.int "same writer is not a rewrite" 0 (Schedule.rewrites s);
  check Alcotest.int "no conflicts from duplicates" 0 (Schedule.conflicts s)

(* -- Bulk coalescing ------------------------------------------------------- *)

let runs_t = Alcotest.(list (pair int int))

let test_bulk_runs_adjacent () =
  check runs_t "adjacent blocks form one run" [ (3, 3) ] (Bulk.runs [ 3; 4; 5 ]);
  check Alcotest.int "one message" 1 (Bulk.message_count [ 3; 4; 5 ])

let test_bulk_runs_non_adjacent () =
  check runs_t "gaps split runs" [ (1, 1); (3, 1); (5, 1) ] (Bulk.runs [ 1; 3; 5 ]);
  check Alcotest.int "one message each" 3 (Bulk.message_count [ 1; 3; 5 ])

let test_bulk_runs_unsorted_dups () =
  (* Order must not matter and duplicates must merge. *)
  check runs_t "unsorted input with duplicates" [ (1, 2); (5, 2) ]
    (Bulk.runs [ 5; 1; 2; 2; 6 ]);
  check runs_t "empty" [] (Bulk.runs []);
  check runs_t "singleton" [ (7, 1) ] (Bulk.runs [ 7; 7 ])

(* -- Predictive protocol -------------------------------------------------- *)

let predictive_machine ?(num_nodes = 4) ?(block_bytes = 32) () =
  let m = Machine.create (Machine.default_config ~num_nodes ~block_bytes ()) in
  let p = Predictive.create m in
  (m, p, Predictive.coherence p)

(* One producer-consumer iteration: node 0 writes, nodes 2 and 3 read. *)
let pc_iteration m coh a ~phase =
  coh.Coherence.phase_begin ~phase;
  Machine.write m ~node:0 a 1.0;
  ignore (Machine.read m ~node:2 a);
  ignore (Machine.read m ~node:3 a);
  coh.Coherence.phase_end ~phase

let test_predictive_builds_schedule () =
  let m, p, coh = predictive_machine () in
  let a = Machine.alloc m ~words:4 ~home:1 in
  pc_iteration m coh a ~phase:7;
  match Predictive.schedule p ~phase:7 with
  | None -> Alcotest.fail "schedule expected"
  | Some s ->
      check Alcotest.int "one block" 1 (Schedule.cardinal s);
      (match Schedule.find s (Machine.block_of m a) with
      | Some (Schedule.Conflict _) -> ()
      | _ -> Alcotest.fail "write+read in one phase is a conflict")

let test_predictive_no_recording_outside_phase () =
  let m, p, _coh = predictive_machine () in
  let a = Machine.alloc m ~words:4 ~home:1 in
  Machine.write m ~node:0 a 1.0;
  ignore (Machine.read m ~node:2 a);
  check Alcotest.bool "no schedule" true (Predictive.schedule p ~phase:0 = None)

(* Split producer and consumer into separate phases, like the compiler's
   directive placement does: writes in phase 0, reads in phase 1. *)
let two_phase_iteration m coh a n =
  coh.Coherence.phase_begin ~phase:0;
  Machine.write m ~node:0 a (float_of_int n);
  coh.Coherence.phase_end ~phase:0;
  coh.Coherence.phase_begin ~phase:1;
  ignore (Machine.read m ~node:2 a);
  ignore (Machine.read m ~node:3 a);
  coh.Coherence.phase_end ~phase:1

let test_predictive_presend_eliminates_faults () =
  let m, p, coh = predictive_machine () in
  let a = Machine.alloc m ~words:4 ~home:1 in
  (* Iteration 1 builds the schedules. *)
  two_phase_iteration m coh a 1;
  let f2 = (Machine.counters m ~node:2).Machine.read_faults in
  let f3 = (Machine.counters m ~node:3).Machine.read_faults in
  check Alcotest.int "iteration 1: consumer 2 faults" 1 f2;
  check Alcotest.int "iteration 1: consumer 3 faults" 1 f3;
  (* Iterations 2..4: presend satisfies every access. *)
  for n = 2 to 4 do
    two_phase_iteration m coh a n
  done;
  check Alcotest.int "no further reader faults (node 2)" f2
    (Machine.counters m ~node:2).Machine.read_faults;
  check Alcotest.int "no further reader faults (node 3)" f3
    (Machine.counters m ~node:3).Machine.read_faults;
  check Alcotest.int "no further writer faults" 1 (Machine.counters m ~node:0).Machine.write_faults;
  check (Alcotest.float 0.0) "data still correct" 4.0 (Machine.peek m a);
  (* Presend moved blocks. *)
  let st = Predictive.stats p in
  Alcotest.(check bool) "presend sent blocks" true (st.Predictive.presend_blocks > 0);
  (* Directory invariant holds at quiescence. *)
  for b = 0 to Machine.num_blocks m - 1 do
    match Directory.check_invariant (Predictive.engine p).Engine.dir b with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  done

let test_predictive_presend_grants_tags () =
  let m, _p, coh = predictive_machine () in
  let a = Machine.alloc m ~words:4 ~home:1 in
  let b = Machine.block_of m a in
  two_phase_iteration m coh a 1;
  (* Begin phase 0 again: the writer mark pre-grants ReadWrite to node 0. *)
  coh.Coherence.phase_begin ~phase:0;
  check tag "writer pre-granted" Tag.Read_write (Machine.tag m ~node:0 b);
  check tag "old reader invalidated" Tag.Invalid (Machine.tag m ~node:2 b);
  coh.Coherence.phase_end ~phase:0;
  coh.Coherence.phase_begin ~phase:1;
  check tag "reader 2 pre-granted" Tag.Read_only (Machine.tag m ~node:2 b);
  check tag "reader 3 pre-granted" Tag.Read_only (Machine.tag m ~node:3 b);
  coh.Coherence.phase_end ~phase:1

let test_predictive_incremental_schedule () =
  let m, p, coh = predictive_machine () in
  let a = Machine.alloc m ~words:4 ~home:1 in
  let a2 = Machine.alloc m ~words:4 ~home:1 in
  (* Iteration 1: only consumer 2 reads block a. *)
  coh.Coherence.phase_begin ~phase:1;
  ignore (Machine.read m ~node:2 a);
  coh.Coherence.phase_end ~phase:1;
  (* Iteration 2: the pattern grows — consumer 3 and a second block appear.
     New faults must extend the schedule. *)
  coh.Coherence.phase_begin ~phase:1;
  ignore (Machine.read m ~node:2 a);
  ignore (Machine.read m ~node:3 a);
  ignore (Machine.read m ~node:3 a2);
  coh.Coherence.phase_end ~phase:1;
  (match Predictive.schedule p ~phase:1 with
  | Some s -> check Alcotest.int "schedule grew" 2 (Schedule.cardinal s)
  | None -> Alcotest.fail "schedule expected");
  (* Iteration 3: nobody faults. *)
  let before = (Machine.total_counters m).Machine.read_faults in
  coh.Coherence.phase_begin ~phase:1;
  ignore (Machine.read m ~node:2 a);
  ignore (Machine.read m ~node:3 a);
  ignore (Machine.read m ~node:3 a2);
  coh.Coherence.phase_end ~phase:1;
  check Alcotest.int "no new faults" before (Machine.total_counters m).Machine.read_faults

let test_predictive_flush () =
  let m, p, coh = predictive_machine () in
  let a = Machine.alloc m ~words:4 ~home:1 in
  coh.Coherence.phase_begin ~phase:3;
  ignore (Machine.read m ~node:2 a);
  coh.Coherence.phase_end ~phase:3;
  coh.Coherence.flush_schedule ~phase:3;
  (match Predictive.schedule p ~phase:3 with
  | Some s -> check Alcotest.int "flushed empty" 0 (Schedule.cardinal s)
  | None -> ());
  (* After a flush the next iteration faults again (and rebuilds). *)
  Machine.write m ~node:0 a 9.0;
  let before = (Machine.counters m ~node:2).Machine.read_faults in
  coh.Coherence.phase_begin ~phase:3;
  ignore (Machine.read m ~node:2 a);
  coh.Coherence.phase_end ~phase:3;
  check Alcotest.int "fault after flush" (before + 1) (Machine.counters m ~node:2).Machine.read_faults

let test_predictive_conflict_no_action () =
  let m, p, coh = predictive_machine () in
  let a = Machine.alloc m ~words:4 ~home:1 in
  (* Build a conflicting schedule: read and write in one phase. *)
  pc_iteration m coh a ~phase:0;
  let st = Predictive.stats p in
  let blocks_before = st.Predictive.presend_blocks in
  coh.Coherence.phase_begin ~phase:0;
  check Alcotest.int "conflict block not presended" blocks_before
    (Predictive.stats p).Predictive.presend_blocks;
  coh.Coherence.phase_end ~phase:0

let test_predictive_first_stable_conflict_action () =
  (* With the First_stable extension (section 3.4's suggestion), a conflict
     block is presended according to its pre-conflict state, so the stable
     consumers stop faulting; with the default `Ignore it faults forever. *)
  let run conflict_action =
    let m = Machine.create (Machine.default_config ~num_nodes:4 ~block_bytes:32 ()) in
    let p = Predictive.create ~conflict_action m in
    let coh = Predictive.coherence p in
    let a = Machine.alloc m ~words:4 ~home:1 in
    (* Phase pattern: node 2 reads the block, then node 0 writes it — a
       read+write conflict within the phase, repeated every iteration. *)
    for _ = 1 to 5 do
      coh.Coherence.phase_begin ~phase:0;
      ignore (Machine.read m ~node:2 a);
      Machine.write m ~node:0 a 1.0;
      coh.Coherence.phase_end ~phase:0
    done;
    (Machine.counters m ~node:2).Machine.read_faults
  in
  let ignore_faults = run `Ignore in
  let stable_faults = run `First_stable in
  check Alcotest.int "ignore: consumer faults every iteration" 5 ignore_faults;
  Alcotest.(check bool)
    (Printf.sprintf "first-stable cuts consumer faults (%d < %d)" stable_faults ignore_faults)
    true (stable_faults < ignore_faults)

let test_predictive_redundant_detection () =
  let m, p, coh = predictive_machine () in
  let a = Machine.alloc m ~words:4 ~home:1 in
  coh.Coherence.phase_begin ~phase:1;
  ignore (Machine.read m ~node:2 a);
  coh.Coherence.phase_end ~phase:1;
  (* Nothing invalidated node 2's copy, so the presend has nothing to do. *)
  coh.Coherence.phase_begin ~phase:1;
  coh.Coherence.phase_end ~phase:1;
  let st = Predictive.stats p in
  Alcotest.(check bool) "redundant presend counted" true (st.Predictive.presend_redundant >= 1)

let test_predictive_migratory () =
  (* A block written by a different node each iteration of the same phase:
     the schedule predicts the latest writer. *)
  let m, _p, coh = predictive_machine () in
  let a = Machine.alloc m ~words:4 ~home:0 in
  let writer_of_iter n = 1 + (n mod 2) in
  for n = 0 to 5 do
    coh.Coherence.phase_begin ~phase:0;
    Machine.write m ~node:(writer_of_iter n) a (float_of_int n);
    coh.Coherence.phase_end ~phase:0
  done;
  check (Alcotest.float 0.0) "final value" 5.0 (Machine.peek m a)

let test_predictive_presend_charges_presend_bucket () =
  let m, _p, coh = predictive_machine () in
  let a = Machine.alloc m ~words:4 ~home:1 in
  two_phase_iteration m coh a 1;
  Machine.reset_stats m;
  two_phase_iteration m coh a 2;
  let presend = ref 0.0 in
  for n = 0 to 3 do
    presend := !presend +. Machine.bucket_time m ~node:n Machine.Presend
  done;
  Alcotest.(check bool) "presend time accrued" true (!presend > 0.0);
  (* The home node (1) did the sending work. *)
  Alcotest.(check bool) "home pays presend" true
    (Machine.bucket_time m ~node:1 Machine.Presend > 0.0)

let test_predictive_bulk_coalescing () =
  (* Two adjacent blocks read by the same consumer: the presend should use
     one bulk message for both. *)
  let m, p, coh = predictive_machine () in
  let a = Machine.alloc m ~words:8 ~home:1 in
  coh.Coherence.phase_begin ~phase:0;
  ignore (Machine.read m ~node:2 a);
  ignore (Machine.read m ~node:2 (a + 4));
  coh.Coherence.phase_end ~phase:0;
  (* Invalidate the copies so the presend has work to do. *)
  Machine.write m ~node:0 a 1.0;
  Machine.write m ~node:0 (a + 4) 2.0;
  coh.Coherence.phase_begin ~phase:0;
  coh.Coherence.phase_end ~phase:0;
  let st = Predictive.stats p in
  (* One recall request + one bulk recall reply bring both blocks home, then
     a single 2-block gather message forwards them to the reader. *)
  check Alcotest.int "three messages total" 3 st.Predictive.presend_msgs;
  check Alcotest.int "two blocks granted" 2 st.Predictive.presend_blocks

(* Every leg of one presend on a 70-node machine (the byte-string Nodeset
   arm), pinned message by message: recalls from remote exclusive owners,
   batched invalidations to several readers, data grants to one pair forming
   two runs with a gap, grant-only upgrades riding on a data message to the
   same pair, and a grant-only pair with no data.  The schedule is set by
   hand and the machine state by accesses outside any phase, so only the
   presend runs after [reset_stats]. *)
let presend_legs ~coalesce =
  let module Trace = Ccdsm_tempest.Trace in
  let m = Machine.create (Machine.default_config ~num_nodes:70 ~block_bytes:32 ()) in
  let p = Predictive.create ~coalesce m in
  let coh = Predictive.coherence p in
  let wpb = Machine.words_per_block m in
  let region ~home n =
    let a = Machine.alloc m ~words:(n * wpb) ~home in
    Array.init n (fun k -> a + (k * wpb))
  in
  let b = region ~home:3 2 in
  let a = region ~home:65 9 in
  (* One recorded fault creates phase 5's schedule; then every mark is set
     by hand. *)
  coh.Coherence.phase_begin ~phase:5;
  ignore (Machine.read m ~node:64 b.(0));
  coh.Coherence.phase_end ~phase:5;
  let s = Option.get (Predictive.schedule p ~phase:5) in
  let readers l = Schedule.Readers (Nodeset.of_list l) in
  List.iter
    (fun (addr, mark) -> Schedule.set_mark s (Machine.block_of m addr) mark)
    [
      (b.(0), readers [ 64 ]);
      (b.(1), Schedule.Writer 3);
      (a.(0), readers [ 66 ]);
      (a.(1), readers [ 66 ]);
      (a.(3), readers [ 66; 68 ]);
      (a.(4), Schedule.Writer 66);
      (a.(5), Schedule.Writer 66);
      (a.(6), Schedule.Writer 67);
      (a.(7), Schedule.Writer 69);
      (a.(8), readers [ 69 ]);
    ];
  Machine.write m ~node:3 b.(0) 1.0;
  List.iter (fun r -> ignore (Machine.read m ~node:r b.(1))) [ 64; 69 ];
  Machine.write m ~node:67 a.(0) 1.0;
  List.iter
    (fun r ->
      ignore (Machine.read m ~node:r a.(4));
      ignore (Machine.read m ~node:r a.(5)))
    [ 66; 68; 69 ];
  ignore (Machine.read m ~node:67 a.(6));
  Machine.write m ~node:68 a.(7) 1.0;
  ignore (Machine.read m ~node:69 a.(8));
  Machine.reset_stats m;
  (* One log in program order: every message, every charge before the
     closing barrier, and each node's Presend bucket as the barrier starts. *)
  let log = ref [] in
  let add fmt = Printf.ksprintf (fun l -> log := l :: !log) fmt in
  let at_barrier = ref false in
  let (_ : unit -> unit) =
    Machine.observe m
      {
        Machine.silent with
        charge =
          (fun ~node bucket ~us ->
            if not !at_barrier then add "charge %d %s %h" node (Machine.bucket_name bucket) us);
        event =
          (function
          | Trace.Msg { src; dst; bytes; kind } ->
              add "msg %d>%d %s %d" src dst (Trace.msg_kind_name kind) bytes
          | Trace.Barrier _ ->
              at_barrier := true;
              for n = 0 to 69 do
                let us = Machine.bucket_time m ~node:n Machine.Presend in
                if us <> 0.0 then add "presend %d %h" n us
              done
          | _ -> ());
      }
  in
  coh.Coherence.phase_begin ~phase:5;
  let st = Predictive.stats p in
  let c = Machine.total_counters m in
  let after = List.init 70 (fun n -> Machine.bucket_time m ~node:n Machine.Presend) in
  List.rev !log
  @ [
      Printf.sprintf "after barrier %h on all: %b" (List.hd after)
        (List.for_all (( = ) (List.hd after)) after);
      Printf.sprintf "stats recorded=%d msgs=%d blocks=%d bytes=%d redundant=%d undone=%d r=%d w=%d"
        st.Predictive.faults_recorded st.Predictive.presend_msgs st.Predictive.presend_blocks
        st.Predictive.presend_bytes st.Predictive.presend_redundant st.Predictive.presend_undone
        st.Predictive.presend_grants_r st.Predictive.presend_grants_w;
      Printf.sprintf
        "counters lr=%d lw=%d rf=%d wf=%d msgs=%d bytes=%d inval=%d down=%d retry=%d timeout=%d \
         fallback=%d"
        c.Machine.local_reads c.Machine.local_writes c.Machine.read_faults c.Machine.write_faults
        c.Machine.msgs c.Machine.bytes c.Machine.invalidations c.Machine.downgrades
        c.Machine.retries c.Machine.timeouts c.Machine.presend_fallbacks;
    ]

(* Expected logs.  Bucket times and traces elsewhere depend on this exact
   order of messages and charges, so any queueing or flush change that
   reorders them shows here line by line. *)
let presend_legs_coalesced =
  [
    "charge 3 presend 0x1p+0";
    "charge 3 presend 0x1p+0";
    "charge 65 presend 0x1p+0";
    "charge 65 presend 0x1p+0";
    "charge 65 presend 0x1p+0";
    "charge 65 presend 0x1p+0";
    "charge 65 presend 0x1p+0";
    "charge 65 presend 0x1p+0";
    "charge 65 presend 0x1p+0";
    "charge 65 presend 0x1p+0";
    "msg 65>67 recall 16";
    "charge 65 presend 0x1.3266666666666p+6";
    "msg 67>65 data 56";
    "charge 65 presend 0x1.4266666666666p+6";
    "msg 65>68 recall 16";
    "charge 65 presend 0x1.3266666666666p+6";
    "msg 68>65 data 56";
    "charge 65 presend 0x1.4266666666666p+6";
    "msg 3>64 inval 20";
    "charge 3 presend 0x1.34p+6";
    "msg 64>3 ack 16";
    "charge 3 presend 0x1.3266666666666p+6";
    "msg 3>69 inval 20";
    "charge 3 presend 0x1.34p+6";
    "msg 69>3 ack 16";
    "charge 3 presend 0x1.3266666666666p+6";
    "msg 65>68 inval 24";
    "charge 65 presend 0x1.359999999999ap+6";
    "msg 68>65 ack 16";
    "charge 65 presend 0x1.3266666666666p+6";
    "msg 65>69 inval 24";
    "charge 65 presend 0x1.359999999999ap+6";
    "msg 69>65 ack 16";
    "charge 65 presend 0x1.3266666666666p+6";
    "msg 3>64 data 56";
    "charge 3 presend 0x1.4266666666666p+6";
    "msg 65>66 data 136";
    "charge 65 presend 0x1.6266666666666p+6";
    "msg 65>68 data 56";
    "charge 65 presend 0x1.4266666666666p+6";
    "msg 65>69 data 56";
    "charge 65 presend 0x1.4266666666666p+6";
    "msg 65>67 grant 20";
    "charge 65 presend 0x1.34p+6";
    "presend 3 0x1.85cccccccccccp+8";
    "presend 65 0x1.de9999999999ap+9";
    "after barrier 0x1.00ccccccccccdp+10 on all: true";
    "stats recorded=1 msgs=17 blocks=6 bytes=416 redundant=1 undone=0 r=5 w=5";
    "counters lr=0 lw=0 rf=0 wf=0 msgs=17 bytes=620 inval=10 down=4 retry=0 timeout=0 fallback=0";
  ]

let presend_legs_uncoalesced =
  [
    "charge 3 presend 0x1p+0";
    "charge 3 presend 0x1p+0";
    "charge 65 presend 0x1p+0";
    "charge 65 presend 0x1p+0";
    "charge 65 presend 0x1p+0";
    "charge 65 presend 0x1p+0";
    "charge 65 presend 0x1p+0";
    "charge 65 presend 0x1p+0";
    "charge 65 presend 0x1p+0";
    "charge 65 presend 0x1p+0";
    "msg 65>67 recall 16";
    "charge 65 presend 0x1.3266666666666p+6";
    "msg 67>65 data 48";
    "charge 65 presend 0x1.3f33333333333p+6";
    "msg 65>68 recall 16";
    "charge 65 presend 0x1.3266666666666p+6";
    "msg 68>65 data 48";
    "charge 65 presend 0x1.3f33333333333p+6";
    "msg 3>64 inval 20";
    "charge 3 presend 0x1.34p+6";
    "msg 64>3 ack 16";
    "charge 3 presend 0x1.3266666666666p+6";
    "msg 3>69 inval 20";
    "charge 3 presend 0x1.34p+6";
    "msg 69>3 ack 16";
    "charge 3 presend 0x1.3266666666666p+6";
    "msg 65>68 inval 24";
    "charge 65 presend 0x1.359999999999ap+6";
    "msg 68>65 ack 16";
    "charge 65 presend 0x1.3266666666666p+6";
    "msg 65>69 inval 24";
    "charge 65 presend 0x1.359999999999ap+6";
    "msg 69>65 ack 16";
    "charge 65 presend 0x1.3266666666666p+6";
    "msg 3>64 data 48";
    "charge 3 presend 0x1.3f33333333333p+6";
    "msg 65>66 data 56";
    "charge 65 presend 0x1.4266666666666p+6";
    "msg 65>66 data 48";
    "charge 65 presend 0x1.3f33333333333p+6";
    "msg 65>66 data 48";
    "charge 65 presend 0x1.3f33333333333p+6";
    "msg 65>68 data 48";
    "charge 65 presend 0x1.3f33333333333p+6";
    "msg 65>69 data 48";
    "charge 65 presend 0x1.3f33333333333p+6";
    "msg 65>67 grant 20";
    "charge 65 presend 0x1.34p+6";
    "presend 3 0x1.85p+8";
    "presend 65 0x1.1466666666666p+10";
    "after barrier 0x1.25e6666666666p+10 on all: true";
    "stats recorded=1 msgs=19 blocks=6 bytes=392 redundant=1 undone=0 r=5 w=5";
    "counters lr=0 lw=0 rf=0 wf=0 msgs=19 bytes=596 inval=10 down=4 retry=0 timeout=0 fallback=0";
  ]

let test_predictive_presend_legs_70_nodes () =
  let lines = Alcotest.(list string) in
  check lines "coalesced" presend_legs_coalesced (presend_legs ~coalesce:true);
  check lines "uncoalesced" presend_legs_uncoalesced (presend_legs ~coalesce:false)

(* [presend_undone] counts demand faults on a (node, block) pair granted by
   this phase's presend: the pair, not the block alone, and this phase only.
   A grant lost in flight is a presend fallback instead. *)
let test_predictive_presend_undone () =
  let undone p = (Predictive.stats p).Predictive.presend_undone in
  let read_faults m n = (Machine.counters m ~node:n).Machine.read_faults in
  (* Phase 1 records node 2 reading [a] and node 3 reading [a2]; node 0's
     writes outside any phase take both copies away again. *)
  let setup () =
    let m, p, coh = predictive_machine () in
    let a = Machine.alloc m ~words:4 ~home:1 in
    let a2 = Machine.alloc m ~words:4 ~home:1 in
    coh.Coherence.phase_begin ~phase:1;
    ignore (Machine.read m ~node:2 a);
    ignore (Machine.read m ~node:3 a2);
    coh.Coherence.phase_end ~phase:1;
    Machine.write m ~node:0 a 1.0;
    Machine.write m ~node:0 a2 1.0;
    (m, p, coh, a, a2)
  in
  (* Same phase: node 3's fault on [a] was granted to node 2 only; node 2's
     fault on [a] is undone. *)
  let m, p, coh, a, a2 = setup () in
  coh.Coherence.phase_begin ~phase:1;
  Machine.write m ~node:0 a 2.0;
  ignore (Machine.read m ~node:3 a);
  check Alcotest.int "other node's grant" 0 (undone p);
  ignore (Machine.read m ~node:2 a);
  check Alcotest.int "granted then faulted" 1 (undone p);
  ignore (Machine.read m ~node:3 a2);
  check Alcotest.int "granted and kept" 1 (undone p);
  coh.Coherence.phase_end ~phase:1;
  (* Previous phase: node 2's grant of [a] comes with phase 1, so its
     faults on [a] in later phases are not undone — in phase 3, which has
     no presend, and in phase 2, whose presend grants [a2] to node 3. *)
  let m, p, coh, a, a2 = setup () in
  coh.Coherence.phase_begin ~phase:2;
  ignore (Machine.read m ~node:3 a2);
  coh.Coherence.phase_end ~phase:2;
  let grant_then_take () =
    Machine.write m ~node:0 a 2.0;
    coh.Coherence.phase_begin ~phase:1;
    check tag "phase 1 presend" Tag.Read_only (Machine.tag m ~node:2 (Machine.block_of m a));
    coh.Coherence.phase_end ~phase:1;
    Machine.write m ~node:0 a 3.0
  in
  let before = read_faults m 2 in
  grant_then_take ();
  coh.Coherence.phase_begin ~phase:3;
  ignore (Machine.read m ~node:2 a);
  coh.Coherence.phase_end ~phase:3;
  grant_then_take ();
  Machine.write m ~node:0 a2 2.0;
  coh.Coherence.phase_begin ~phase:2;
  check tag "phase 2 presend" Tag.Read_only (Machine.tag m ~node:3 (Machine.block_of m a2));
  ignore (Machine.read m ~node:2 a);
  coh.Coherence.phase_end ~phase:2;
  check Alcotest.int "faulted twice" (before + 2) (read_faults m 2);
  check Alcotest.int "previous phase's grant" 0 (undone p);
  (* Dropped grant: every presend grant is lost, so node 2's fault is the
     fallback path. *)
  let m, p, coh, a, _ = setup () in
  let module Faults = Ccdsm_tempest.Faults in
  Machine.set_faults m (Some (Faults.create { Faults.none with Faults.drop = 1.0 }));
  coh.Coherence.phase_begin ~phase:1;
  Machine.set_faults m None;
  ignore (Machine.read m ~node:2 a);
  coh.Coherence.phase_end ~phase:1;
  check Alcotest.int "fallback" 1 (Machine.counters m ~node:2).Machine.presend_fallbacks;
  check Alcotest.int "dropped grant" 0 (undone p)

let test_predictive_equivalence_with_stache =
  (* Whatever the phase directives, predictive must compute the same values
     as plain Stache on a random racy-free access pattern. *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"predictive values = stache values"
       QCheck2.Gen.(
         list_size (int_range 1 120)
           (triple (int_range 0 3) (int_range 0 15) (int_range 0 2)))
       (fun ops ->
         let run proto_predictive =
           let m = Machine.create (Machine.default_config ~num_nodes:4 ~block_bytes:32 ()) in
           let coh =
             if proto_predictive then Predictive.coherence (Predictive.create m)
             else snd (Engine.stache m)
           in
           let base = Machine.alloc m ~words:16 ~home:0 in
           let out = ref [] in
           List.iteri
             (fun k (node, idx, kind) ->
               if k mod 20 = 0 then begin
                 coh.Coherence.phase_end ~phase:(k / 20);
                 coh.Coherence.phase_begin ~phase:(1 + (k / 20))
               end;
               match kind with
               | 0 -> Machine.write m ~node (base + idx) (float_of_int k)
               | _ -> out := Machine.read m ~node (base + idx) :: !out)
             ops;
           !out
         in
         run true = run false))

let suite =
  [
    ( "core.schedule",
      [
        Alcotest.test_case "reads accumulate" `Quick test_schedule_reads;
        Alcotest.test_case "writer marks" `Quick test_schedule_writer;
        Alcotest.test_case "conflicts" `Quick test_schedule_conflict;
        Alcotest.test_case "conflict hits" `Quick test_schedule_conflict_hits;
        Alcotest.test_case "corruption hooks" `Quick test_schedule_corruption_hooks;
        Alcotest.test_case "pre-conflict capture" `Quick test_schedule_pre_conflict;
        Alcotest.test_case "clear" `Quick test_schedule_clear;
        Alcotest.test_case "sorted iteration" `Quick test_schedule_sorted_iteration;
        Alcotest.test_case "record after flush" `Quick test_schedule_record_after_flush;
        Alcotest.test_case "duplicate records idempotent" `Quick
          test_schedule_duplicate_records_idempotent;
        Alcotest.test_case "bulk runs: adjacent" `Quick test_bulk_runs_adjacent;
        Alcotest.test_case "bulk runs: non-adjacent" `Quick test_bulk_runs_non_adjacent;
        Alcotest.test_case "bulk runs: unsorted, duplicates" `Quick test_bulk_runs_unsorted_dups;
      ] );
    ( "core.predictive",
      [
        Alcotest.test_case "builds schedule" `Quick test_predictive_builds_schedule;
        Alcotest.test_case "no recording outside phase" `Quick
          test_predictive_no_recording_outside_phase;
        Alcotest.test_case "presend eliminates faults" `Quick
          test_predictive_presend_eliminates_faults;
        Alcotest.test_case "presend grants tags" `Quick test_predictive_presend_grants_tags;
        Alcotest.test_case "incremental schedule" `Quick test_predictive_incremental_schedule;
        Alcotest.test_case "flush" `Quick test_predictive_flush;
        Alcotest.test_case "conflict blocks skipped" `Quick test_predictive_conflict_no_action;
        Alcotest.test_case "first-stable conflict action" `Quick
          test_predictive_first_stable_conflict_action;
        Alcotest.test_case "redundant presend detection" `Quick test_predictive_redundant_detection;
        Alcotest.test_case "migratory pattern" `Quick test_predictive_migratory;
        Alcotest.test_case "presend bucket charged" `Quick
          test_predictive_presend_charges_presend_bucket;
        Alcotest.test_case "bulk coalescing" `Quick test_predictive_bulk_coalescing;
        Alcotest.test_case "presend legs at 70 nodes" `Quick
          test_predictive_presend_legs_70_nodes;
        Alcotest.test_case "presend undone" `Quick test_predictive_presend_undone;
        test_predictive_equivalence_with_stache;
      ] );
  ]
