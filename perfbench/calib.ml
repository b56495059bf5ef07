(* Host-speed calibration.

   A shared host's speed drifts by tens of percent over minutes as other
   tenants come and go, so a raw pass time measured now and one measured
   ten minutes later differ more than most real changes would.  This fixed
   kernel, owned by the benchmark and independent of the program under
   test, is timed next to every pass; its time measures how fast the host
   runs at that moment.  A pass time divided by the kernel's time around
   it, times [reference_s], is the pass time at the reference speed. *)

(* The kernel's time on a 2-core Xeon VM at a quiet moment: the host the
   benchmark's bounds were set on. *)
let reference_s = 0.015

module A1 = Bigarray.Array1

(* Outside the OCaml heap, so the kernel adds nothing to [top_heap_mb]. *)
let table = A1.init Bigarray.int Bigarray.c_layout (1 lsl 19) (fun _ -> 0)
let floats = Float.Array.make 4096 1.0

(* Allocation-free, so the size and state of the benchmark's own heap do
   not change its time: random read-modify-writes over 4 MiB of ints miss
   the caches the way the simulator's flat tables do, and a float loop
   stands in for the app kernels. *)
let kernel () =
  let mask = A1.dim table - 1 in
  let x = ref 12345 in
  for _ = 1 to 2_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land mask in
    A1.unsafe_set table i (A1.unsafe_get table i + 1)
  done;
  let acc = ref 0.0 in
  for r = 1 to 400 do
    for i = 0 to Float.Array.length floats - 1 do
      let v = Float.Array.unsafe_get floats i in
      acc := !acc +. (v *. float_of_int r /. (1.0 +. v));
      Float.Array.unsafe_set floats i (v +. 1e-9)
    done
  done;
  ignore (Sys.opaque_identity !acc)

let once () =
  let t0 = Layer_clock.now () in
  kernel ();
  float_of_int (Layer_clock.now () - t0) /. 1e9

(* Seconds the kernel takes now: the median of three runs, so one
   interrupted run does not read as a slow host. *)
let sample () =
  let a = once () and b = once () and c = once () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* The host-speed factor from the samples taken before and after a span:
   above 1 when the host runs slower than the reference. *)
let speed before after = (before +. after) /. 2.0 /. reference_s
