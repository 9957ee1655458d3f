(* Timing, host-speed correction, statistics and result printing shared
   by the workloads. *)

let now = Unix.gettimeofday

(* {1 Host-speed correction}

   The host's speed drifts by up to 2x in phases of seconds. Each timed
   round is preceded by a fixed, dependent integer loop; its time
   against [ref_s] (its median on the reference host) gives the host's
   speed for the round, and times and rates are reported as they would
   have been on the reference host. *)

let ref_iters = 3_000_000
let ref_s = 0.0066

let ref_loop () =
  let acc = ref 1 in
  for i = 1 to ref_iters do
    acc := ((!acc * 1103515245) + i) land 0x3FFFFFFF
  done;
  ignore (Sys.opaque_identity !acc)

let ref_time () =
  let t0 = now () in
  ref_loop ();
  now () -. t0

(* Host speed seen by both domains of [pool]: the reference loop runs
   on the pool's worker and on this thread at once, and the two
   speeds are averaged, since a two-domain workload runs on both. *)
let speed_of pool =
  match pool with
  | None -> ref_s /. ref_time ()
  | Some pool ->
      let other = Scheduler.Pool.async pool ref_time in
      let mine = ref_time () in
      let theirs = Scheduler.Future.await other in
      ((ref_s /. mine) +. (ref_s /. theirs)) /. 2.

(* The host speed before a round: after a pause that lets the previous
   round's tail (the workload's own threads, GC) settle, so that the
   probe measures the host rather than the program. *)
let probe pool =
  Unix.sleepf 0.02;
  speed_of pool

(* One timed round of [f]: wall seconds, and the host speed (1.0 =
   reference host, 0.5 = half as fast) measured just before it. *)
type round = { wall : float; speed : float }

let timed ?pool f =
  let speed = probe pool in
  let t0 = now () in
  let x = f () in
  (x, { wall = now () -. t0; speed })

(* Every workload's pool: one worker domain plus the main domain. *)
let with_pool f =
  let pool = Scheduler.Pool.create ~num_domains:1 () in
  Fun.protect ~finally:(fun () -> Scheduler.Pool.shutdown pool) (fun () -> f pool)

(* {1 Statistics} *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear-interpolated quantile, q in [0, 1]. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let p = q *. float_of_int (n - 1) in
    let i = int_of_float p in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((p -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* Interquartile mean: the mean of the middle half. *)
let iqm xs =
  let a = sorted xs in
  let n = Array.length a in
  let lo = n / 4 and hi = n - (n / 4) in
  let s = ref 0. in
  for i = lo to hi - 1 do
    s := !s +. a.(i)
  done;
  !s /. float_of_int (hi - lo)
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

(* {1 Phases}

   A phase runs a fixed number of rounds, as many as fill [seconds] at
   the reference host's pace of [nominal] seconds a round, so that
   every run attempts the same work. On a host slowed past three times
   that pace the phase stops early, after at least three rounds. *)
let phase ~seconds ~nominal f =
  let n = max 3 (int_of_float (Float.round (seconds /. nominal))) in
  let deadline = now () +. (3. *. seconds) in
  let rec go k acc =
    if k = n || (k >= 3 && now () > deadline) then List.rev acc
    else go (k + 1) (f () :: acc)
  in
  go 0 []

(* A phase's rate from its rounds of [n] operations: the interquartile
   mean of the rounds' rates, so that neither rounds slowed by other
   tenants of the host nor a few lucky ones decide it; host-corrected
   and raw. *)
let phase_rate rounds =
  let q f = iqm (List.map (fun (n, r) -> float_of_int n /. f r) rounds) in
  (q (fun r -> r.wall *. r.speed), q (fun r -> r.wall))

(* Median of [n] set-ups of [f], raw and host-corrected seconds. *)
let setup_median ?pool n f =
  let xs =
    List.init n (fun _ ->
        let speed = probe pool in
        let t0 = now () in
        let after = f () in
        let dt = now () -. t0 in
        after ();
        (dt, dt *. speed))
  in
  (median (List.map fst xs), median (List.map snd xs))

(* Mean seconds per call of [f] over [n] calls. *)
let per_call n f =
  let t0 = now () in
  for _ = 1 to n do
    f ()
  done;
  (now () -. t0) /. float_of_int n

(* {1 Process} *)

(* Peak resident set of this process, MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  go ()

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* Scratch directory inside the checkout, removed at exit. *)
let work_dir =
  lazy
    (let d = Filename.concat ".perfbench-work" (string_of_int (Unix.getpid ())) in
     let rec mk d =
       if not (Sys.file_exists d) then begin
         mk (Filename.dirname d);
         Sys.mkdir d 0o755
       end
     in
     mk d;
     d)

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let fresh_dir =
  let k = ref 0 in
  fun name ->
    incr k;
    let d = Filename.concat (Lazy.force work_dir) (Printf.sprintf "%s-%d" name !k) in
    rm_rf d;
    d

let cleanup () =
  if Lazy.is_val work_dir then begin
    rm_rf (Lazy.force work_dir);
    try Sys.rmdir ".perfbench-work" with Sys_error _ -> ()
  end

(* {1 Results} *)

type metric = { name : string; value : float; unit : string }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;  (** What the JSON line reports. *)
}

let m name unit value = { name; value; unit }

(* Human-readable lines on stdout before the JSON result line. *)
let say fmt = Printf.printf (fmt ^^ "\n%!")

let json_of_result r =
  let num v = if Float.is_finite v then Printf.sprintf "%.10g" v else "null" in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (num m.value) m.unit)
          r.metrics))

(* Print a per-layer ledger: rows that should add up to [total]. *)
let ledger ~title ~unit ~total rows =
  say "ledger %s (%s per input)" title unit;
  let explained = List.fold_left (fun a (_, v) -> a +. v) 0. rows in
  List.iter (fun (n, v) -> say "  %-34s %12.3f" n v) rows;
  say "  %-34s %12.3f" "residual (unexplained)" (total -. explained);
  say "  %-34s %12.3f" "measured total" total
