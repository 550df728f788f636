(* Repository benchmark: end-to-end and per-layer cost of the GCD
   secret-handshake stack under three workloads.

     shs_perf.exe --workload NAME --seed N --seconds S --trace 0|1

   Every op is timed on the wall clock from outside the library; the
   library is driven only through its public entry points and read only
   through the counters it already exposes.  The last stdout line is one
   JSON object: the result, plus the [fingerprint] of counts that must
   repeat exactly under the seed, which [run.py] checks across runs.

   A run has three parts:
   - set-up, done [setup_reps] times from cold arithmetic caches (the
     median is [setup_s]; the later repetitions must charge identical
     counts);
   - the timed window: ops back to back for [--seconds], continuing past
     the window until the deterministic count prefix of [prefix_steps]
     steps is complete;
   - output checks outside the window (transcript tracing, post-churn
     handshakes).
   End-to-end times are reported in host units (see [ref_loop_ms]).
   With [--trace 1], odd-numbered steps run under span recording and the
   [Prof] profiler; even steps stay untraced, so the same run also
   measures the tracing overhead; the recorded spans are written to
   [.bench_state/spans-<workload>-<seed>.tsv]. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref false

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Int (fun t -> trace := t <> 0), "0|1 traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "shs_perf.exe --workload NAME --seed N --seconds S --trace 0|1"

(* every random stream of a run is a named child of the workload seed *)
let stream name =
  Drbg.bytes_fn
    (Drbg.create
       ~personalization:(Printf.sprintf "perfbench/%s/%s" !workload name)
       ~seed:(string_of_int !seed) ())

let u01 rng =
  let b = rng 4 in
  let byte i = Char.code b.[i] in
  float_of_int
    ((byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3)
  /. 4294967296.0

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* nearest-rank percentile over the samples as measured *)
let percentile xs q =
  match xs with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 0.5
let sum xs = List.fold_left ( +. ) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Host-speed control                                                  *)
(* ------------------------------------------------------------------ *)

(* A fixed loop that calls no repository code, timed after every step.
   On a shared host, handshake wall time drifts by up to 2x between
   minutes while the work counts stay identical.  The loop drifts with
   it: half of its time allocates and walks lists of small arrays, half
   multiplies fresh 20-limb vectors schoolbook-style, the way the bignum
   code allocates and computes (a pure register loop and an 8 MiB
   pointer chase do not drift).  Its time, in ms, is the run's host
   unit: end-to-end times are reported in host units (hu) so that runs
   on one host compare.

   The loop must not time the program's garbage collector, or a change
   that grows the program's heap would also slow the unit and hide part
   of its own cost.  So it runs in [ref_pieces] pieces, each allocating
   ~85k words, a third of the default minor heap, and only short-lived
   values; before each piece, untimed, a minor collection empties the
   minor heap, so no collection and no major slice runs while a piece is
   timed and nothing the loop allocates is promoted.  The caller charges
   the first of these collections, the one that still finds the
   program's young values, to the program (see [sample_host]). *)
let ref_pieces = 8

let ref_piece r =
  let acc = ref 0 in
  let l = List.init 5_000 (fun i -> Array.make 8 (i * r)) in
  List.iter (fun a -> acc := !acc + a.(3)) l;
  let x = Array.init 20 (fun i -> (i * 7919) land 0x3ffffff) in
  for q = 1 to 375 do
    let y = Array.init 20 (fun i -> ((i * (q + (375 * r))) + 17) land 0x3ffffff) in
    let z = Array.make 40 0 in
    for i = 0 to 19 do
      let c = ref 0 in
      for j = 0 to 19 do
        let t = z.(i + j) + (x.(i) * y.(j)) + !c in
        z.(i + j) <- t land 0x3ffffff;
        c := t lsr 26
      done;
      z.(i + 20) <- !c
    done;
    acc := !acc + z.(39)
  done;
  !acc

let ref_loop_ms () =
  let total = ref 0.0 and acc = ref 0 in
  for r = 1 to ref_pieces do
    Gc.minor ();
    let t0 = now () in
    acc := !acc + ref_piece r;
    total := !total +. (now () -. t0)
  done;
  ignore (Sys.opaque_identity !acc);
  !total *. 1000.0

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Spans are recorded from this file only, around each call into a
   layer, and kept in memory until the run ends. *)
type span = {
  sp_id : int;
  sp_parent : int;
  sp_op : int;
  sp_name : string;
  sp_t0 : float;
  mutable sp_t1 : float;
  mutable sp_child : float;  (* summed duration of direct children *)
}

let recording = ref false
let spans : span list ref = ref []
let open_spans : span list ref = ref []
let next_span = ref 0

let span ~op name f =
  if not !recording then f ()
  else begin
    let parent = match !open_spans with p :: _ -> p.sp_id | [] -> -1 in
    let s =
      { sp_id = !next_span; sp_parent = parent; sp_op = op; sp_name = name;
        sp_t0 = now (); sp_t1 = 0.0; sp_child = 0.0 }
    in
    incr next_span;
    open_spans := s :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.sp_t1 <- now ();
        open_spans := List.tl !open_spans;
        (match !open_spans with
         | p :: _ -> p.sp_child <- p.sp_child +. (s.sp_t1 -. s.sp_t0)
         | [] -> ());
        spans := s :: !spans)
      f
  end

(* Every reference-loop sample of the run, as (start time, ms).  Set-up
   and gateway batches run for seconds, so the loop is also timed inside
   them: after each admission and warm-up op of a set-up, and after every
   [driver_calls_per_sample]th driver call of an untraced batch (about
   every 0.25 s).  These points are fixed by the work, not by the clock,
   so a run's sequence of collections, and with it the heap, depends only
   on the seed.  Time spent in the loop is excluded from every timing:
   ops and set-up are timed with [clock].  The minor collection before
   it is not: it is the program's own work, done a little early. *)
let ref_log : (float * float) list ref = ref []
let paused = ref 0.0
let clock () = now () -. !paused

let sample_host () =
  Gc.minor ();
  let t0 = now () in
  ref_log := (t0, ref_loop_ms ()) :: !ref_log;
  paused := !paused +. (now () -. t0)

let driver_calls_per_sample = 1000
let driver_calls = ref 0

(* A step's host unit is the median loop time within [hu_reach] s of the
   step: the host drifts over seconds, while one ~7 ms sample is noisy.
   Set-up time is reported in seconds at a host unit of [reference_hu_ms],
   about the loop's time on the host the benchmark was sized on. *)
let hu_reach = 1.0
let reference_hu_ms = 7.0

let host_unit ~t_start ~t_end =
  median
    (List.filter_map
       (fun (t, ms) -> if t >= t_start -. hu_reach && t <= t_end +. hu_reach then Some ms else None)
       !ref_log)

let dur s = (s.sp_t1 -. s.sp_t0) *. 1000.0
let self_ms s = dur s -. (s.sp_child *. 1000.0)
let spans_named name = List.filter (fun s -> s.sp_name = name) !spans
let total_ms name = sum (List.map dur (spans_named name))
let total_self_ms name = sum (List.map self_ms (spans_named name))

let write_spans t_origin =
  let dir = ".bench_state" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir (Printf.sprintf "spans-%s-%d.tsv" !workload !seed)) in
  output_string oc "id\tparent\top\tname\tstart_us\tend_us\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.1f\t%.1f\n" s.sp_id s.sp_parent
        s.sp_op s.sp_name
        ((s.sp_t0 -. t_origin) *. 1e6)
        ((s.sp_t1 -. t_origin) *. 1e6))
    (List.rev !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Counters the program exposes                                        *)
(* ------------------------------------------------------------------ *)

let counter snap name = try List.assoc name snap with Not_found -> 0

type counts = { c_muls : int; c_pow : int; c_ctr : (string * int) list }

let read_counts () =
  { c_muls = Bigint.mul_count ();
    c_pow = Bigint.pow_mod_count ();
    c_ctr = Obs.snapshot_counters () @ Shs_error.snapshot ();
  }

let delta a b name = counter b.c_ctr name - counter a.c_ctr name

(* ------------------------------------------------------------------ *)
(* Workload plumbing                                                   *)
(* ------------------------------------------------------------------ *)

(* One op as the user sees it. *)
type op = {
  ok : bool;  (* the protocol served it; failures count in [failed] *)
  lat_ms : float;  (* wall time the caller waited *)
  sim_lat : float;  (* simulated time, where the op has a network *)
  bytes : int;  (* bytes the op put on the wire or the broadcast channel *)
}

let check_errors : string list ref = ref []
let fail_check fmt = Printf.ksprintf (fun s -> check_errors := s :: !check_errors) fmt

let all_complete outcomes =
  Array.for_all
    (function
      | Some (o : Gcd_types.outcome) -> o.termination = Gcd_types.Complete
      | None -> false)
    outcomes

(* every seat accepted, sees every seat as a partner, and holds the one
   shared session key *)
let check_handshake what outcomes =
  let n = Array.length outcomes in
  let keys =
    Array.to_list outcomes
    |> List.map (function
         | Some (o : Gcd_types.outcome)
           when o.accepted
                && o.termination = Gcd_types.Complete
                && o.partners = List.init n Fun.id ->
           o.session_key
         | _ -> None)
  in
  match keys with
  | Some k :: rest when List.for_all (( = ) (Some k)) rest -> ()
  | _ -> fail_check "%s: a seat did not accept with the shared session key" what

let admit_all ga ~prefix n =
  let joined =
    Array.init n (fun i ->
        let uid = Printf.sprintf "%s%d" prefix i in
        match Scheme1.admit ga ~uid ~member_rng:(stream ("member/" ^ uid)) with
        | Some v ->
          sample_host ();
          v
        | None -> failwith ("set-up: admission refused for " ^ uid))
  in
  (* everyone applies every later admission, so the roster is current *)
  Array.iteri
    (fun i (_, upd) ->
      Array.iteri
        (fun j (m, _) ->
          if j < i && not (Scheme1.update m upd) then
            failwith "set-up: roster update refused")
        joined)
    joined;
  Array.map fst joined

(* The default Phase III hooks, each call wrapped in a span; traced
   verify calls also charge their multiplications to [verify_muls]. *)
let verify_muls = ref 0
let verify_calls = ref 0

let traced_hooks ~op =
  let d = Scheme1.default_hooks in
  { Scheme1.h_sign =
      (fun ~rng mem ~sid ~msg -> span ~op "gsig.sign" (fun () -> d.h_sign ~rng mem ~sid ~msg));
    h_verify =
      (fun mem ~sid ~msg sigma ->
        span ~op "gsig.verify" (fun () ->
            let m0 = Bigint.mul_count () in
            let r = d.h_verify mem ~sid ~msg sigma in
            if !recording then begin
              verify_muls := !verify_muls + (Bigint.mul_count () - m0);
              incr verify_calls
            end;
            r));
    h_filter =
      (fun ~sid ~gpub verified -> span ~op "gsig.filter" (fun () -> d.h_filter ~sid ~gpub verified));
  }

(* ------------------------------------------------------------------ *)
(* Workload: handshake-acjt                                            *)
(* ------------------------------------------------------------------ *)

(* Closed loop, one caller: back-to-back Scheme 1 (ACJT) four-phase
   handshakes, m = 4, seats rotating over an 8-member roster on a clean
   channel. *)
module Acjt = struct
  let m = 4
  let roster = 8
  let warmup = 2

  type world = {
    ga : Scheme1.authority;
    members : Scheme1.member array;
    fmt : Gcd_types.format;
    mutable traced_session : (string * (string * string) array * string array) option;
  }

  let session w k =
    let seats = Array.init m (fun j -> w.members.((k + j + roster) mod roster)) in
    let r =
      Scheme1.run_session
        ~hooks:(traced_hooks ~op:k)
        ~fmt:w.fmt
        (Array.map Scheme1.participant_of_member seats)
    in
    (seats, r)

  let setup () =
    let ga = Scheme1.default_authority ~rng:(stream "authority") () in
    let members = admit_all ga ~prefix:"m" roster in
    let w = { ga; members; fmt = Scheme1.default_format ga; traced_session = None } in
    for k = 0 to warmup - 1 do
      ignore (session w (-1 - k));
      sample_host ()
    done;
    w

  let step w k =
    let t0 = clock () in
    let seats, r = span ~op:k "op" (fun () -> session w k) in
    let lat = (clock () -. t0) *. 1000.0 in
    check_handshake (Printf.sprintf "handshake %d" k) r.Gcd_types.outcomes;
    (match (w.traced_session, r.Gcd_types.outcomes.(0)) with
     | None, Some o ->
       w.traced_session <-
         Some (o.Gcd_types.sid, o.Gcd_types.transcript, Array.map Scheme1.member_uid seats)
     | _ -> ());
    [ { ok = true;
        lat_ms = lat;
        sim_lat = r.Gcd_types.duration;
        bytes = Array.fold_left ( + ) 0 r.Gcd_types.stats.Engine.bytes_sent;
      } ]

  let trace_back ga (sid, transcript, uids) what =
    let opened = Scheme1.trace_user ga ~sid transcript in
    if Array.map (function Some u -> u | None -> "?") opened <> uids then
      fail_check "%s: trace_user did not recover the seats" what

  let post w =
    match w.traced_session with
    | Some s -> trace_back w.ga s "handshake-acjt"
    | None -> fail_check "handshake-acjt: no transcript to trace"
end

(* ------------------------------------------------------------------ *)
(* Workload: gateway-lossy                                             *)
(* ------------------------------------------------------------------ *)

(* One Shs_engine per step, fed a batch of Poisson arrivals in sim time
   (open loop in sim time, a batch in wall time).  Each arrival is a
   two-phase m = 8 Scheme 1 session on a lossy channel; every 5th seats
   a Byzantine last party under the graced watchdog, as Swarm does.  A
   batch arrives within ~4 sim-s and its sessions last ~35 sim-s (p50),
   so nearly all [batch] sessions are live at once; the peak is reported
   as [engine.peak_live]. *)
module Gateway = struct
  let m = 8
  let roster = 8
  let batch = 80
  let mean_gap = 0.05
  let drop = 0.05
  let duplicate = 0.05
  let jitter = 0.3
  let byz_every = 5
  let warmup_sessions = 8

  type world = { ga : Scheme1.authority; members : Scheme1.member array; fmt : Gcd_types.format }

  (* the driver the engine calls, one span per closure call; the first
     moment every seat holds an outcome is the session's wall end *)
  let wrap_driver ~op ~(finished : float option ref) (d : Gcd_types.driver) =
    let settle () =
      if !finished = None then begin
        let all = ref true in
        for i = 0 to d.dr_n - 1 do
          if d.dr_outcome i = None then all := false
        done;
        if !all then finished := Some (clock ())
      end
    in
    let call name f =
      let r = span ~op name f in
      settle ();
      incr driver_calls;
      if (not !recording) && !driver_calls mod driver_calls_per_sample = 0 then
        sample_host ();
      r
    in
    { d with
      Gcd_types.dr_start = (fun i -> call "core.dr_start" (fun () -> d.dr_start i));
      dr_receive =
        (fun i ~src ~payload -> call "core.dr_receive" (fun () -> d.dr_receive i ~src ~payload));
      dr_force = (fun i -> call "core.dr_force" (fun () -> d.dr_force i));
    }

  (* run one batch of [n] arrivals; [label] keys every per-session
     stream, so no two batches share randomness *)
  let run_batch w ~label ~first_op n =
    let peak_live = ref 0 in
    let engine = Shs_engine.create () in
    let sim = Shs_engine.sim engine in
    let arrivals = stream (label ^ "/arrivals") in
    let started = Array.make n 0.0 in
    let finished = Array.init n (fun _ -> ref None) in
    let refused = ref [] in
    let t = ref 0.0 in
    for k = 0 to n - 1 do
      t := !t +. (-.mean_gap *. log (1.0 -. u01 arrivals));
      Sim.schedule sim ~delay:!t (fun () ->
          let op = first_op + k in
          let key = Printf.sprintf "%s/%d" label k in
          let faults =
            Faults.create ~drop ~duplicate ~jitter
              ~seed:(Hashtbl.hash (stream (key ^ "/faults") 8))
              ()
          in
          let adversary, watchdog =
            if k mod byz_every = 0 then
              let plan =
                Fuzz.byzantine_adversary ~byz:(m - 1)
                  ~seed:(Hashtbl.hash (stream (key ^ "/attack") 8))
              in
              let tap = Adversary.tap plan in
              ( Some (fun ~src ~dst ~payload -> span ~op "net.adversary" (fun () -> tap ~src ~dst ~payload)),
                Some Gcd_types.byzantine_watchdog )
            else (None, None)
          in
          started.(k) <- clock ();
          match
            Shs_engine.submit engine ~faults ?adversary ?watchdog (fun () ->
                wrap_driver ~op ~finished:finished.(k)
                  (Scheme1.engine_driver ~two_phase:true ~fmt:w.fmt
                     (Array.init m (fun j ->
                          { Scheme1.p_role = Scheme1.Member_of w.members.((k + j) mod roster);
                            p_rng = stream (Printf.sprintf "%s/seat%d" key j) }))))
          with
          | Shs_engine.Admitted _ -> peak_live := max !peak_live (Shs_engine.live engine)
          | Shs_engine.Rejected -> refused := k :: !refused)
    done;
    span ~op:first_op "engine.run" (fun () -> Shs_engine.run engine);
    (engine, sim, started, finished, !refused, !peak_live)

  let setup () =
    let ga = Scheme1.default_authority ~rng:(stream "authority") () in
    let members = admit_all ga ~prefix:"m" roster in
    let w = { ga; members; fmt = Scheme1.default_format ga } in
    ignore (run_batch w ~label:"warmup" ~first_op:(-warmup_sessions) warmup_sessions);
    w

  let sim_events = ref 0
  let peak_live = ref 0

  let step w i =
    let engine, sim, started, finished, refused, peak =
      run_batch w ~label:(Printf.sprintf "batch%d" i) ~first_op:(i * batch) batch
    in
    sim_events := !sim_events + Sim.events_processed sim;
    peak_live := max !peak_live peak;
    let reports = Shs_engine.reports engine in
    if Shs_engine.live engine <> 0 then
      fail_check "gateway batch %d: %d admitted sessions never reaped" i (Shs_engine.live engine);
    if List.length reports + List.length refused <> batch then
      fail_check "gateway batch %d: %d reports for %d arrivals" i (List.length reports) batch;
    (* a refused arrival is answered at once *)
    let refused_ops =
      List.map (fun _ -> { ok = false; lat_ms = 0.0; sim_lat = 0.0; bytes = 0 }) refused
    in
    refused_ops
    @ List.map
        (fun (r : Shs_engine.report) ->
          let k = r.r_sid in
          if r.r_disposition = Shs_engine.Poisoned then
            fail_check "gateway batch %d: session %d poisoned (%s)" i k
              (Option.value r.r_error ~default:"?");
          let ok =
            r.r_disposition = Shs_engine.Completed
            &&
            if k mod byz_every = 0 then Fuzz.check_honest ~m r.r_outcomes = []
            else all_complete r.r_outcomes
          in
          let lat =
            match !(finished.(k)) with
            | Some t1 -> (t1 -. started.(k)) *. 1000.0
            | None -> 0.0
          in
          { ok; lat_ms = lat; sim_lat = r.r_finished -. r.r_admitted; bytes = 0 })
        reports

  (* the two-phase sessions carry no signatures, so the transcript check
     runs one clean four-phase handshake on the same world *)
  let post w =
    let seats = Array.sub w.members 0 4 in
    let r = Scheme1.run_session ~fmt:w.fmt (Array.map Scheme1.participant_of_member seats) in
    check_handshake "gateway trace handshake" r.Gcd_types.outcomes;
    match r.Gcd_types.outcomes.(0) with
    | Some o ->
      Acjt.trace_back w.ga
        (o.Gcd_types.sid, o.Gcd_types.transcript, Array.map Scheme1.member_uid seats)
        "gateway-lossy"
    | None -> fail_check "gateway-lossy: trace handshake has no outcome"
end

(* ------------------------------------------------------------------ *)
(* Workload: membership-churn                                          *)
(* ------------------------------------------------------------------ *)

(* Closed loop on a capacity-1024 Scheme 1 group of 24: each op admits a
   newcomer and revokes a seeded-random untracked member; the 8 tracked
   members apply both broadcasts. *)
module Churn = struct
  let capacity = 1024
  let initial = 24
  let tracked = 8
  let warmup = 2

  type world = {
    ga : Scheme1.authority;
    tracked_members : Scheme1.member array;
    mutable untracked : (string * Scheme1.member) list;
    mutable revoked : Scheme1.member list;
    mutable next : int;
    pick : int -> string;
  }

  let churn_op w k =
    let uid = Printf.sprintf "n%d" w.next in
    w.next <- w.next + 1;
    match
      span ~op:k "core.admit" (fun () ->
          Scheme1.admit w.ga ~uid ~member_rng:(stream ("member/" ^ uid)))
    with
    | None -> (false, 0)
    | Some (newcomer, b_admit) ->
      let pool = w.untracked in
      let b = w.pick 4 in
      let idx =
        ((Char.code b.[0] lsl 16) lor (Char.code b.[1] lsl 8) lor Char.code b.[2])
        mod List.length pool
      in
      let victim_uid, victim = List.nth pool idx in
      (match span ~op:k "core.remove" (fun () -> Scheme1.remove w.ga ~uid:victim_uid) with
       | None -> (false, String.length b_admit)
       | Some b_remove ->
         w.untracked <- List.filter (fun (u, _) -> u <> victim_uid) pool @ [ (uid, newcomer) ];
         w.revoked <- victim :: w.revoked;
         Array.iteri
           (fun j mem ->
             List.iter
               (fun b ->
                 if not (span ~op:k "core.update" (fun () -> Scheme1.update mem b)) then
                   fail_check "churn op %d: tracked member %d refused an update" k j)
               [ b_admit; b_remove ])
           w.tracked_members;
         (true, String.length b_admit + String.length b_remove))

  let setup () =
    let ga = Scheme1.default_authority ~rng:(stream "authority") ~capacity () in
    let members = admit_all ga ~prefix:"c" initial in
    let w =
      { ga;
        tracked_members = Array.sub members 0 tracked;
        untracked =
          List.init (initial - tracked) (fun i ->
              let mem = members.(tracked + i) in
              (Scheme1.member_uid mem, mem));
        revoked = [];
        next = 0;
        pick = stream "victims";
      }
    in
    for k = 0 to warmup - 1 do
      ignore (churn_op w (-1 - k));
      sample_host ()
    done;
    w

  let step w k =
    let t0 = clock () in
    let ok, bytes = span ~op:k "op" (fun () -> churn_op w k) in
    [ { ok; lat_ms = (clock () -. t0) *. 1000.0; sim_lat = 0.0; bytes } ]

  (* after the churn: the tracked members still handshake, and a revoked
     member seated among them is left out of every partner set *)
  let post w =
    let fmt = Scheme1.default_format w.ga in
    let seats = Array.sub w.tracked_members 0 4 in
    let r = Scheme1.run_session ~fmt (Array.map Scheme1.participant_of_member seats) in
    check_handshake "post-churn handshake" r.Gcd_types.outcomes;
    (match r.Gcd_types.outcomes.(0) with
     | Some o ->
       Acjt.trace_back w.ga
         (o.Gcd_types.sid, o.Gcd_types.transcript, Array.map Scheme1.member_uid seats)
         "membership-churn"
     | None -> ());
    match w.revoked with
    | [] -> fail_check "membership-churn: nothing was revoked"
    | victim :: _ ->
      let seats = Array.append (Array.sub w.tracked_members 0 3) [| victim |] in
      let r = Scheme1.run_session ~fmt (Array.map Scheme1.participant_of_member seats) in
      Array.iteri
        (fun i o ->
          if i < 3 then
            match o with
            | Some (o : Gcd_types.outcome) when o.partners = [ 0; 1; 2 ] -> ()
            | _ -> fail_check "membership-churn: revoked member not left out by seat %d" i)
        r.Gcd_types.outcomes
end

(* ------------------------------------------------------------------ *)
(* Run loop                                                            *)
(* ------------------------------------------------------------------ *)

type workload = {
  clear : unit -> unit;  (* drops the world *)
  setup : unit -> unit;  (* builds and warms the world, kept for [step] *)
  step : int -> op list;
  post : unit -> unit;
  prefix_steps : int;  (* steps whose counts must repeat exactly *)
}

let instantiate (type w) ~(setup : unit -> w) ~(step : w -> int -> op list)
    ~(post : w -> unit) ~prefix_steps =
  let world = ref None in
  let get () = match !world with Some w -> w | None -> assert false in
  { clear = (fun () -> world := None);
    setup = (fun () -> world := Some (setup ()));
    step = (fun i -> step (get ()) i);
    post = (fun () -> post (get ()));
    prefix_steps;
  }

let workloads =
  [ ("handshake-acjt", fun () ->
        instantiate ~setup:Acjt.setup ~step:Acjt.step ~post:Acjt.post ~prefix_steps:12);
    ("gateway-lossy", fun () ->
        instantiate ~setup:Gateway.setup ~step:Gateway.step ~post:Gateway.post ~prefix_steps:2);
    ("membership-churn", fun () ->
        instantiate ~setup:Churn.setup ~step:Churn.step ~post:Churn.post ~prefix_steps:16);
  ]

let setup_reps = 3

(* Prof tree helpers: inclusive cost of every frame whose name satisfies
   [p], not counting a matching frame nested inside another *)
let rec prof_incl p f (t : Prof.tree) =
  if p t.Prof.t_name then f t
  else List.fold_left (fun acc c -> acc +. prof_incl p f c) 0.0 t.Prof.t_children

let has_prefix pre s =
  String.length s >= String.length pre && String.sub s 0 (String.length pre) = pre

let () =
  let wl =
    match List.assoc_opt !workload workloads with
    | Some make -> make ()
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  let t_origin = now () in

  (* ---- set-up, repeated from cold caches ------------------------- *)
  let setup_times = ref [] and setup_counts = ref [] in
  for _ = 1 to setup_reps do
    (* the previous repetition's world is garbage before the next starts *)
    wl.clear ();
    Gc.compact ();
    Bigint.reset_caches ();
    let c0 = read_counts () in
    sample_host ();
    let t_start = now () and t0 = clock () in
    wl.setup ();
    let secs = clock () -. t0 and t_end = now () in
    sample_host ();
    setup_times := (secs, host_unit ~t_start ~t_end) :: !setup_times;
    let c1 = read_counts () in
    setup_counts :=
      (c1.c_muls - c0.c_muls, c1.c_pow - c0.c_pow, delta c0 c1 "net.bytes") :: !setup_counts
  done;
  (* the first repetition also pays the process's one-time lazy
     initialisation, so only the later ones must agree exactly *)
  (match List.rev !setup_counts with
   | _ :: c :: rest when List.for_all (( = ) c) rest -> ()
   | _ ->
     fail_check "set-up repetitions charged different counts: %s"
       (String.concat "; "
          (List.rev_map (fun (a, b, c) -> Printf.sprintf "%d/%d/%d" a b c) !setup_counts)));

  (* ---- timed window ---------------------------------------------- *)
  let steps_log = ref [] in
  let prof_trees = ref [] in
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let c_start = read_counts () in
  let c_prefix = ref c_start in
  let heap_peak_words = ref 0 in
  let caches_at_prefix = ref (0, 0) in
  let traced_in_prefix = ref 0 and ops_in_prefix = ref 0 in
  let bytes_in_prefix = ref 0 and ok_in_prefix = ref 0 in
  let sim_lat_prefix = ref [] in
  let t_window = now () in
  sample_host ();
  let i = ref 0 in
  while now () -. t_window < !seconds || !i < wl.prefix_steps do
    let traced = !trace && !i mod 2 = 1 in
    if traced then begin
      Prof.reset ();
      Prof.enable ();
      recording := true
    end;
    let t_start = now () and t0 = clock () in
    let r = wl.step !i in
    let ms = (clock () -. t0) *. 1000.0 and t_end = now () in
    if !i < wl.prefix_steps then
      heap_peak_words := max !heap_peak_words (Gc.quick_stat ()).Gc.heap_words;
    if traced then begin
      recording := false;
      Prof.disable ();
      prof_trees := Prof.snapshot () :: !prof_trees
    end;
    sample_host ();
    steps_log := (t_start, t_end, traced, ms, r) :: !steps_log;
    if !i < wl.prefix_steps then begin
      ops_in_prefix := !ops_in_prefix + List.length r;
      if traced then incr traced_in_prefix;
      bytes_in_prefix := !bytes_in_prefix + List.fold_left (fun a o -> a + o.bytes) 0 r;
      ok_in_prefix := !ok_in_prefix + List.length (List.filter (fun o -> o.ok) r);
      sim_lat_prefix :=
        List.rev_append (List.map (fun o -> o.sim_lat) (List.filter (fun o -> o.ok) r)) !sim_lat_prefix;
      if !i = wl.prefix_steps - 1 then begin
        c_prefix := read_counts ();
        caches_at_prefix := (Bigint.fixed_base_cache_size (), Bigint.mont_cache_size ())
      end
    end;
    incr i
  done;
  let gc1 = Gc.quick_stat () in
  let c_end = read_counts () in
  let steps = !i in

  (* ---- checks outside the window --------------------------------- *)
  (try wl.post () with e -> fail_check "output check raised %s" (Printexc.to_string e));

  (* ---- metrics ---------------------------------------------------- *)
  let steps_log =
    List.rev_map
      (fun (t_start, t_end, traced, ms, r) -> (traced, ms, host_unit ~t_start ~t_end, r))
      !steps_log
  in
  let ops_hu =
    List.concat_map (fun (_, _, hu, r) -> List.map (fun o -> (o, o.lat_ms /. hu)) r) steps_log
  in
  let ops = List.map fst ops_hu in
  let attempted = List.length ops in
  let good = List.filter (fun o -> o.ok) ops in
  (* latency and throughput cover every op the system served, whatever
     the protocol outcome; failures are counted apart, in [failed] *)
  let lat = List.map (fun o -> o.lat_ms) ops in
  let lat_hu = List.map snd ops_hu in
  let busy_s = sum (List.map (fun (_, ms, _, _) -> ms) steps_log) /. 1000.0 in
  let busy_khu = sum (List.map (fun (_, ms, hu, _) -> ms /. hu) steps_log) /. 1000.0 in
  let ref_samples = List.map snd !ref_log in
  (* the major heap after each step of the count prefix: neither set-up
     nor how many steps the host's speed fits in the window moves it *)
  let heap_peak_mb =
    float_of_int (!heap_peak_words * (Sys.word_size / 8)) /. 1048576.0
  in
  (* per-op counts over the deterministic prefix *)
  let pn = float_of_int !ops_in_prefix in
  (* gateway sessions report no bytes of their own: the engine's
     net.bytes counter holds them *)
  let wire_bytes =
    if !bytes_in_prefix > 0 then float_of_int !bytes_in_prefix
    else float_of_int (delta c_start !c_prefix "net.bytes")
  in
  let per_prefix_op name = float_of_int (delta c_start !c_prefix name) /. pn in
  let e2e =
    [ ( "setup_s",
        median (List.map (fun (secs, hu) -> secs /. hu *. reference_hu_ms) !setup_times),
        "s" );
      ("throughput_ops_khu", float_of_int attempted /. busy_khu, "1/khu");
      ("latency_hu_p50", percentile lat_hu 0.5, "hu");
      ("latency_hu_p75", percentile lat_hu 0.75, "hu");
      ("wire_bytes_per_op", wire_bytes /. pn, "B");
      ("heap_peak_mb", heap_peak_mb, "MB");
    ]
  in
  (* the deterministic counts every run of this seed must repeat *)
  let fingerprint =
    [ ("bigint.mul", float_of_int (!c_prefix.c_muls - c_start.c_muls));
      ("bigint.pow_mod", float_of_int (!c_prefix.c_pow - c_start.c_pow));
      ("bigint.fixed_base_tables", float_of_int (fst !caches_at_prefix));
      ("bigint.mont_contexts", float_of_int (snd !caches_at_prefix));
      ("wire_bytes", wire_bytes);
      ("ok_ops", float_of_int !ok_in_prefix);
      ("sim_latency_p50", median !sim_lat_prefix);
      ("sim_latency_p90", percentile !sim_lat_prefix 0.9);
    ]
    @ List.map
        (fun n -> (n, float_of_int (delta c_start !c_prefix n)))
        [ "net.messages"; "net.deliveries"; "net.dropped"; "net.duplicated";
          "gcd.retransmissions"; "gcd.timeouts"; "engine.shed"; "wire.decode_error" ]
  in
  (* profiles of the traced steps in the prefix: the oldest
     [traced_in_prefix] ones *)
  let trees = !prof_trees in
  let prefix_trees =
    List.filteri (fun k _ -> k >= List.length trees - !traced_in_prefix) trees
  in
  let prof_sum f = sum (List.map f prefix_trees) in
  let calls op t = float_of_int (Prof.total t op) in
  let all_words t = sum (List.map (fun op -> float_of_int (Prof.total_words t op)) Prof.all_ops) in
  let frame_calls pre op = prof_sum (prof_incl (has_prefix pre) (calls op)) in
  let fingerprint =
    fingerprint
    @
    if not !trace then []
    else
      [ ("prof.mul", prof_sum (calls Prof.Mul));
        ("prof.modexp", prof_sum (calls Prof.Modexp));
        ("prof.multi_exp", prof_sum (calls Prof.Multi_exp));
        ("prof.limb_words", prof_sum all_words);
        ("prof.spk.prove.mul", frame_calls "spk.prove" Prof.Mul);
        ("prof.spk.verify.mul", frame_calls "spk.verify" Prof.Mul);
        ("prof.dgka.mul", frame_calls "dgka." Prof.Mul);
      ]
  in
  let per_layer =
    if not !trace then []
    else begin
      let ops_per_step = pn /. float_of_int wl.prefix_steps in
      let ptn = float_of_int (List.length prefix_trees) *. ops_per_step in
      let frame_muls pre = frame_calls pre Prof.Mul /. ptn in
      let traced_ops =
        float_of_int (List.length trees) *. (float_of_int attempted /. float_of_int steps)
      in
      let op_ms = total_ms "op" +. total_ms "engine.run" in
      let gsig_ms = total_ms "gsig.sign" +. total_ms "gsig.verify" +. total_ms "gsig.filter" in
      let driver_ms =
        total_ms "core.dr_start" +. total_ms "core.dr_receive" +. total_ms "core.dr_force"
      in
      let adv_ms = total_ms "net.adversary" in
      let engine_self = total_self_ms "engine.run" in
      let msgs = float_of_int (delta c_start !c_prefix "net.messages") in
      let retx = float_of_int (delta c_start !c_prefix "gcd.retransmissions") in
      let pair_ratio =
        (* traced over untraced step time, steps paired in run order *)
        let pick tr =
          List.filter_map (fun (t, ms, hu, _) -> if t = tr then Some (ms /. hu) else None) steps_log
        in
        let t = pick true and p = pick false in
        let rec go t p acc =
          match (t, p) with
          | a :: t', b :: p' -> go t' p' ((a /. b) :: acc)
          | _ -> acc
        in
        go t p []
      in
      let span_p50 name = median (List.map dur (spans_named name)) in
      [ ("bigint.mul_per_op", per_prefix_op "bigint.mul", "count");
        ("bigint.modexp_per_op", prof_sum (calls Prof.Modexp) /. ptn, "count");
        ("bigint.multi_exp_per_op", prof_sum (calls Prof.Multi_exp) /. ptn, "count");
        ("bigint.limb_words_per_op", prof_sum all_words /. ptn, "words");
        ("bigint.fixed_base_tables", float_of_int (fst !caches_at_prefix), "count");
        ("bigint.mont_contexts", float_of_int (snd !caches_at_prefix), "count");
        ( "gc.minor_words_per_op",
          (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int attempted,
          "words" );
        ( "gc.major_words_per_op",
          (gc1.Gc.major_words -. gc0.Gc.major_words) /. float_of_int attempted,
          "words" );
        ("sigma.prove_muls_per_op", frame_muls "spk.prove", "count");
        ("sigma.verify_muls_per_op", frame_muls "spk.verify", "count");
        ("gsig.sign_per_op", per_prefix_op "gsig.sign", "count");
        ("gsig.verify_per_op", per_prefix_op "gsig.verify", "count");
        ("gsig.sign_ms_p50", span_p50 "gsig.sign", "ms");
        ("gsig.verify_ms_p50", span_p50 "gsig.verify", "ms");
        ( "gsig.verify_muls_per_call",
          ratio (float_of_int !verify_muls) (float_of_int !verify_calls),
          "count" );
        ("gsig.busy_share", ratio gsig_ms op_ms, "fraction");
        ("dgka.muls_per_op", frame_muls "dgka.", "count");
        ("core.driver_ms_per_op", ratio driver_ms traced_ops, "ms");
        ("core.nongsig_ms_per_op", ratio (op_ms -. gsig_ms) traced_ops, "ms");
        ("core.retransmits_per_op", retx /. pn, "count");
        ("core.retransmit_ratio", ratio retx msgs, "fraction");
        ("core.timeouts_per_op", per_prefix_op "gcd.timeouts", "count");
        ("core.rejected_msgs_per_op", per_prefix_op "gcd.rejected_msgs", "count");
        ("core.admit_ms_p50", span_p50 "core.admit", "ms");
        ("core.remove_ms_p50", span_p50 "core.remove", "ms");
        ("core.update_ms_p50", span_p50 "core.update", "ms");
        ("fail_fraction", 1.0 -. (float_of_int !ok_in_prefix /. pn), "fraction");
        ("engine.self_ms_per_op", ratio engine_self traced_ops, "ms");
        ("engine.self_share", ratio engine_self (total_ms "engine.run"), "fraction");
        ("engine.shed", float_of_int (delta c_start !c_prefix "engine.shed"), "count");
        ("engine.peak_live", float_of_int !Gateway.peak_live, "count");
        ("engine.poisoned", float_of_int (delta c_start c_end "engine.poisoned"), "count");
        ("engine.rejected", float_of_int (delta c_start c_end "engine.rejected"), "count");
        ( "engine.backpressure_dropped",
          float_of_int (delta c_start !c_prefix "engine.backpressure_dropped"),
          "count" );
        ("sim.events_per_op", float_of_int !Gateway.sim_events /. float_of_int attempted, "count");
        ("sim_latency_s_p50", median !sim_lat_prefix, "sim-s");
        ("sim_latency_s_p90", percentile !sim_lat_prefix 0.9, "sim-s");
        ("net.messages_per_op", msgs /. pn, "count");
        ("net.deliveries_per_op", per_prefix_op "net.deliveries", "count");
        ("net.dropped_per_op", per_prefix_op "net.dropped", "count");
        ("net.duplicated_per_op", per_prefix_op "net.duplicated", "count");
        ("net.adversary_ms_per_op", ratio adv_ms traced_ops, "ms");
        ("error.decode_errors_per_op", per_prefix_op "wire.decode_error", "count");
        ( "cgkd.minor_words_per_op",
          prof_sum (prof_incl (has_prefix "cgkd.") Prof.total_minor_words) /. ptn,
          "words" );
        ("trace.overhead_fraction", median pair_ratio -. 1.0, "fraction");
        ("host.ref_loop_ms", median ref_samples, "ms");
        ("wall.setup_s", median (List.map fst !setup_times), "s");
        ("wall.throughput_ops_s", float_of_int attempted /. busy_s, "1/s");
        ("wall.latency_ms_p50", percentile lat 0.5, "ms");
        ("wall.latency_ms_p75", percentile lat 0.75, "ms");
        ("trace.traced_ops", traced_ops, "count");
      ]
      |> List.map (fun (n, v, u) -> (n, (if Float.is_nan v then 0.0 else v), u))
    end
  in
  if !trace then write_spans t_origin;

  (* ---- report ----------------------------------------------------- *)
  Printf.printf "workload %s seed %d: %d ops in %d steps, %.2f s busy, %d failed\n"
    !workload !seed attempted steps busy_s (attempted - List.length good);
  Printf.printf "  setup repetitions: %s s\n"
    (String.concat " " (List.rev_map (fun (secs, _) -> Printf.sprintf "%.3f" secs) !setup_times));
  Printf.printf "  host.ref_loop_ms %.3f over %d samples\n" (median ref_samples)
    (List.length ref_samples);
  Printf.printf "  wall clock: %.4f ops/s, latency p50 %.2f ms, p75 %.2f ms over %d ops\n"
    (float_of_int attempted /. busy_s) (percentile lat 0.5) (percentile lat 0.75)
    (List.length lat);
  List.iter (fun e -> Printf.printf "  CHECK FAILED: %s\n" e) (List.rev !check_errors);
  let num v = Obs_json.Float v in
  let metric (n, v, u) = (n, Obs_json.Obj [ ("value", num v); ("unit", Obs_json.Str u) ]) in
  let doc =
    Obs_json.Obj
      [ ("correct", Obs_json.Bool (!check_errors = []));
        ("checks", Obs_json.List (List.rev_map (fun e -> Obs_json.Str e) !check_errors));
        ("attempted", Obs_json.Int attempted);
        ("failed", Obs_json.Int (attempted - List.length good));
        ("metrics", Obs_json.Obj (List.map metric (if !trace then per_layer else e2e)));
        ("fingerprint", Obs_json.Obj (List.map (fun (n, v) -> (n, num v)) fingerprint));
      ]
  in
  print_endline (Obs_json.to_string doc)
