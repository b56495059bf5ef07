(* Tests for the simulated DSM substrate. *)

module Machine = Ccdsm_tempest.Machine
module Network = Ccdsm_tempest.Network
module Tag = Ccdsm_tempest.Tag
module Trace = Ccdsm_tempest.Trace

let check = Alcotest.check

let small ?(num_nodes = 4) ?(block_bytes = 32) () =
  Machine.create (Machine.default_config ~num_nodes ~block_bytes ())

(* A trivial protocol that grants whatever tag is demanded, counting calls. *)
let permissive m =
  let reads = ref 0 and writes = ref 0 in
  Machine.install m
    {
      Machine.on_read_fault =
        (fun ~node b ->
          incr reads;
          Machine.set_tag m ~node b Tag.Read_only);
      Machine.on_write_fault =
        (fun ~node b ->
          incr writes;
          Machine.set_tag m ~node b Tag.Read_write);
    };
  (reads, writes)

let test_tag_encoding () =
  List.iter
    (fun t -> check (Alcotest.testable Tag.pp Tag.equal) "roundtrip" t (Tag.of_char (Tag.to_char t)))
    [ Tag.Invalid; Tag.Read_only; Tag.Read_write ];
  Alcotest.(check bool) "invalid forbids read" false (Tag.permits_read Tag.Invalid);
  Alcotest.(check bool) "ro forbids write" false (Tag.permits_write Tag.Read_only);
  Alcotest.(check bool) "rw permits both" true
    (Tag.permits_read Tag.Read_write && Tag.permits_write Tag.Read_write)

let test_config_validation () =
  Alcotest.check_raises "bad block size"
    (Invalid_argument "Machine.create: block_bytes must be a power of two >= 8") (fun () ->
      ignore (Machine.create (Machine.default_config ~block_bytes:48 ())));
  Alcotest.check_raises "zero nodes" (Invalid_argument "Machine.create: num_nodes out of range")
    (fun () -> ignore (Machine.create (Machine.default_config ~num_nodes:0 ())))

let test_alloc_alignment () =
  let m = small () in
  (* 32-byte blocks = 4 words. *)
  check Alcotest.int "words per block" 4 (Machine.words_per_block m);
  let a0 = Machine.alloc m ~words:1 ~home:0 in
  let a1 = Machine.alloc m ~words:5 ~home:1 in
  let a2 = Machine.alloc m ~words:4 ~home:2 in
  check Alcotest.int "first addr" 0 a0;
  check Alcotest.int "second addr block-aligned" 4 a1;
  check Alcotest.int "rounded up to 2 blocks" 12 a2;
  check Alcotest.int "total blocks" 4 (Machine.num_blocks m);
  check Alcotest.int "home of block 0" 0 (Machine.home m 0);
  check Alcotest.int "home of block 1" 1 (Machine.home m 1);
  check Alcotest.int "home of block 2" 1 (Machine.home m 2);
  check Alcotest.int "home of block 3" 2 (Machine.home m 3)

let test_initial_tags () =
  let m = small () in
  let a = Machine.alloc m ~words:4 ~home:2 in
  let b = Machine.block_of m a in
  let tag = Alcotest.testable Tag.pp Tag.equal in
  check tag "home starts ReadWrite" Tag.Read_write (Machine.tag m ~node:2 b);
  check tag "others start Invalid" Tag.Invalid (Machine.tag m ~node:0 b)

let test_fault_vectoring () =
  let m = small () in
  let reads, writes = permissive m in
  let a = Machine.alloc m ~words:4 ~home:0 in
  (* Home access: no fault. *)
  Machine.write m ~node:0 a 3.5;
  check Alcotest.int "no write fault at home" 0 !writes;
  check (Alcotest.float 0.0) "home reads value" 3.5 (Machine.read m ~node:0 a);
  (* Remote read: one fault, then cached. *)
  check (Alcotest.float 0.0) "remote reads value" 3.5 (Machine.read m ~node:1 a);
  check Alcotest.int "one read fault" 1 !reads;
  ignore (Machine.read m ~node:1 a);
  check Alcotest.int "second read hits" 1 !reads;
  (* Remote write: ReadOnly copy upgrades via fault. *)
  Machine.write m ~node:1 a 7.0;
  check Alcotest.int "one write fault" 1 !writes;
  check (Alcotest.float 0.0) "value visible" 7.0 (Machine.peek m a)

let test_fault_without_protocol () =
  let m = small () in
  let a = Machine.alloc m ~words:4 ~home:0 in
  Alcotest.check_raises "no protocol" (Failure "Machine: access fault with no protocol installed")
    (fun () -> ignore (Machine.read m ~node:1 a))

let test_charge_and_time () =
  let m = small () in
  Machine.charge m ~node:0 Machine.Compute 5.0;
  Machine.charge m ~node:0 Machine.Remote_wait 2.0;
  Machine.charge m ~node:1 Machine.Presend 1.0;
  check (Alcotest.float 1e-9) "bucket" 5.0 (Machine.bucket_time m ~node:0 Machine.Compute);
  check (Alcotest.float 1e-9) "node time" 7.0 (Machine.time m ~node:0);
  check (Alcotest.float 1e-9) "max time" 7.0 (Machine.max_time m)

let test_barrier_equalizes () =
  let m = small () in
  Machine.charge m ~node:0 Machine.Compute 10.0;
  Machine.charge m ~node:3 Machine.Compute 4.0;
  Machine.barrier m ~bucket:Machine.Synch;
  let bcost = Network.barrier_cost (Machine.net m) ~nodes:4 in
  let expect = 10.0 +. bcost in
  for n = 0 to 3 do
    check (Alcotest.float 1e-9) (Printf.sprintf "node %d time" n) expect (Machine.time m ~node:n)
  done;
  check (Alcotest.float 1e-9) "skew charged to synch" (6.0 +. bcost)
    (Machine.bucket_time m ~node:3 Machine.Synch)

let test_counters () =
  let m = small () in
  let _ = permissive m in
  let a = Machine.alloc m ~words:4 ~home:0 in
  ignore (Machine.read m ~node:1 a);
  Machine.write m ~node:1 a 1.0;
  Machine.count_msg m ~node:1 ~bytes:100 ();
  let c = Machine.counters m ~node:1 in
  check Alcotest.int "read faults" 1 c.Machine.read_faults;
  check Alcotest.int "write faults" 1 c.Machine.write_faults;
  check Alcotest.int "local reads" 1 c.Machine.local_reads;
  check Alcotest.int "msgs" 1 c.Machine.msgs;
  check Alcotest.int "bytes" 100 c.Machine.bytes;
  let tot = Machine.total_counters m in
  check Alcotest.int "totals aggregate" 1 tot.Machine.read_faults;
  Machine.reset_stats m;
  check Alcotest.int "reset clears" 0 (Machine.counters m ~node:1).Machine.read_faults;
  check (Alcotest.float 0.0) "reset clears time" 0.0 (Machine.max_time m)

let test_reset_preserves_tags () =
  let m = small () in
  let _ = permissive m in
  let a = Machine.alloc m ~words:4 ~home:0 in
  ignore (Machine.read m ~node:1 a);
  Machine.reset_stats m;
  let tag = Alcotest.testable Tag.pp Tag.equal in
  check tag "tag survives reset" Tag.Read_only (Machine.tag m ~node:1 (Machine.block_of m a))

let test_growth () =
  (* Allocation growth must preserve earlier data, homes and tags. *)
  let m = small () in
  let _ = permissive m in
  let a0 = Machine.alloc m ~words:4 ~home:3 in
  Machine.write m ~node:3 a0 9.0;
  for i = 0 to 999 do
    ignore (Machine.alloc m ~words:16 ~home:(i mod 4))
  done;
  check (Alcotest.float 0.0) "data preserved" 9.0 (Machine.peek m a0);
  check Alcotest.int "home preserved" 3 (Machine.home m (Machine.block_of m a0));
  check Alcotest.int "blocks" 4001 (Machine.num_blocks m)

let test_growth_256_nodes () =
  (* Several capacity doublings at 256 nodes: each doubling re-lays every
     node's row of the flat tag table at a new row base, and tags, homes
     and values must all survive — with and without a trace subscriber. *)
  let run ~traced =
    let m = small ~num_nodes:256 () in
    let _ = permissive m in
    let events = ref 0 in
    if traced then Machine.subscribe m (fun _ -> incr events);
    (* One seeded block per home, written at home and read by a neighbour,
       so both a ReadWrite and a ReadOnly tag sit in every row. *)
    let addrs =
      Array.init 256 (fun h ->
          let a = Machine.alloc m ~words:4 ~home:h in
          Machine.write m ~node:h a (float_of_int ((h * 3) + 1));
          ignore (Machine.read m ~node:((h + 1) land 255) a);
          a)
    in
    (* 256 + 8000 blocks drives capacity through 128 -> 16384: six
       doublings past the seeded allocations. *)
    for i = 0 to 7999 do
      ignore (Machine.alloc m ~words:4 ~home:(i land 255))
    done;
    Alcotest.(check bool) "past 8192 blocks" true (Machine.num_blocks m > 8192);
    Array.iteri
      (fun h a ->
        let b = Machine.block_of m a in
        check (Alcotest.float 0.0)
          (Printf.sprintf "value at home %d" h)
          (float_of_int ((h * 3) + 1))
          (Machine.peek m a);
        check Alcotest.int (Printf.sprintf "home of block %d" b) h (Machine.home m b);
        check (Alcotest.testable Tag.pp Tag.equal) "writer tag" Tag.Read_write
          (Machine.tag m ~node:h b);
        check (Alcotest.testable Tag.pp Tag.equal) "reader tag" Tag.Read_only
          (Machine.tag m ~node:((h + 1) land 255) b))
      addrs;
    if traced then Alcotest.(check bool) "trace events flowed" true (!events > 0)
  in
  run ~traced:false;
  run ~traced:true

(* An observer that sets only [access] sees every access, range words
   included, but leaves the machine untraced: no event is built for it. *)
let test_observer_access_only () =
  let m = small () in
  let _ = permissive m in
  let a = Machine.alloc m ~words:16 ~home:0 in
  let seen = ref [] in
  let detach =
    Machine.observe m
      {
        Machine.silent with
        access = (fun ~node ~addr ~write -> seen := (node, addr - a, write) :: !seen);
      }
  in
  Alcotest.(check bool) "access-only is untraced" false (Machine.traced m);
  ignore (Machine.read m ~node:1 (a + 3));
  Machine.write m ~node:2 (a + 5) 1.0;
  Machine.read_range m ~node:3 (a + 2) (Array.make 6 0.0);
  check
    Alcotest.(list (triple int int bool))
    "accesses in order"
    ([ (1, 3, false); (2, 5, true) ] @ List.init 6 (fun k -> (3, 2 + k, false)))
    (List.rev !seen);
  let untrace = Machine.observe m { Machine.silent with event = ignore } in
  Alcotest.(check bool) "event observer traces" true (Machine.traced m);
  untrace ();
  untrace ();
  Alcotest.(check bool) "detached: untraced again" false (Machine.traced m);
  detach ();
  ignore (Machine.read m ~node:1 (a + 3));
  check Alcotest.int "detached: no more accesses" 8 (List.length !seen)

(* Observers receive each observation in attach order, and an exception
   from a later observer still leaves the earlier one holding the event —
   the model checker's recorder-before-sanitizer rule. *)
let test_observer_attach_order () =
  let m = small () in
  let _ = permissive m in
  let a = Machine.alloc m ~words:4 ~home:0 in
  let log = ref [] in
  let note who ev = log := (who, Trace.to_json ev) :: !log in
  let (_ : unit -> unit) = Machine.observe m { Machine.silent with event = note "first" } in
  let (_ : unit -> unit) =
    Machine.observe m
      {
        Machine.silent with
        event =
          (fun ev ->
            note "second" ev;
            match ev with Trace.Fault _ -> failwith "violation" | _ -> ());
      }
  in
  Machine.write m ~node:0 a 2.0;
  Alcotest.check_raises "second observer raises" (Failure "violation") (fun () ->
      ignore (Machine.read m ~node:1 a));
  let log = List.rev !log in
  Alcotest.(check bool) "events seen" true (List.length log >= 4);
  let rec pairs = function
    | ("first", e1) :: ("second", e2) :: rest -> e1 = e2 && pairs rest
    | [] -> true
    | _ -> false
  in
  Alcotest.(check bool) "first then second, every event" true (pairs log);
  let block = Machine.block_of m a in
  let fault = Trace.to_json (Trace.Fault { node = 1; block; write = false }) in
  check
    Alcotest.(list (pair string string))
    "both saw the raising fault, the first one first"
    [ ("first", fault); ("second", fault) ]
    (List.filteri (fun i _ -> i >= List.length log - 2) log)

let test_network_costs () =
  let n = Network.default in
  check (Alcotest.float 1e-9) "msg cost"
    (n.Network.msg_startup_us +. (32.0 *. n.Network.per_byte_us))
    (Network.msg_cost n ~bytes:32);
  (* A clean 2-hop miss should be in the neighbourhood of the paper's 200us. *)
  let miss = n.Network.fault_us +. Network.round_trip n ~bytes:32 in
  Alcotest.(check bool) "2-hop miss ~200us" true (miss > 150.0 && miss < 250.0);
  check (Alcotest.float 1e-9) "barrier log2" (5.0 *. n.Network.barrier_hop_us)
    (Network.barrier_cost n ~nodes:32);
  check (Alcotest.float 1e-9) "barrier 1 node" 0.0 (Network.barrier_cost n ~nodes:1)

let suite =
  [
    ( "tempest.machine",
      [
        Alcotest.test_case "tag encoding" `Quick test_tag_encoding;
        Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "alloc alignment and homes" `Quick test_alloc_alignment;
        Alcotest.test_case "initial tags" `Quick test_initial_tags;
        Alcotest.test_case "fault vectoring" `Quick test_fault_vectoring;
        Alcotest.test_case "fault without protocol" `Quick test_fault_without_protocol;
        Alcotest.test_case "charge and time" `Quick test_charge_and_time;
        Alcotest.test_case "barrier equalizes" `Quick test_barrier_equalizes;
        Alcotest.test_case "counters" `Quick test_counters;
        Alcotest.test_case "reset preserves tags" `Quick test_reset_preserves_tags;
        Alcotest.test_case "growth preserves state" `Quick test_growth;
        Alcotest.test_case "growth at 256 nodes, traced and untraced" `Quick
          test_growth_256_nodes;
        Alcotest.test_case "access-only observer is untraced" `Quick test_observer_access_only;
        Alcotest.test_case "observers in attach order" `Quick test_observer_attach_order;
        Alcotest.test_case "network costs" `Quick test_network_costs;
      ] );
  ]
