(* Behaviour pin for [run_session]: three seeded sessions, each reduced
   to one digest over everything a caller or a gated bench series can
   observe — per-seat outcomes and transcripts, the session's network
   accounting, its sim-time duration, and the watchdog / rejection
   counters it moved.  The digests were recorded once and must never
   move: a refactor of the session runtime that changes any of these
   bytes changes protocol behaviour, not just structure.

   [test_chaos] only checks that two runs of one build agree; this
   suite checks that every build agrees with the recorded one. *)

module W = World.Make (Scheme_sig.Scheme1)

let uids = List.init 8 (Printf.sprintf "p%d")

let hex s = Sha256.hex s
let digest s = hex (Sha256.digest s)

let outcome_text = function
  | None -> "none"
  | Some (o : Gcd_types.outcome) ->
    Printf.sprintf "%b|%s|%s|%s|%s|%s" o.Gcd_types.accepted
      (String.concat "," (List.map string_of_int o.Gcd_types.partners))
      (match o.Gcd_types.session_key with Some k -> hex k | None -> "-")
      (Gcd_types.string_of_termination o.Gcd_types.termination)
      (hex o.Gcd_types.sid)
      (String.concat ","
         (Array.to_list
            (Array.map
               (fun (theta, delta) -> digest (theta ^ "/" ^ delta))
               o.Gcd_types.transcript)))

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

(* counters are zeroed before each session, so every value is that
   session's own; zeros are skipped, so whether a counter happens to be
   registered yet cannot move a digest *)
let pinned_counter (name, v) =
  v <> 0
  && (name = "gcd.retransmissions" || name = "gcd.timeouts"
     || String.starts_with ~prefix:"gcd.rejected" name)

let session_text (r : Gcd_types.session_result) =
  let st = r.Gcd_types.stats in
  String.concat "\n"
    (List.map outcome_text (Array.to_list r.Gcd_types.outcomes)
    @ [ Printf.sprintf "msgs=%s bytes=%s deliveries=%d dropped=%d dup=%d"
          (ints st.Engine.messages_sent) (ints st.Engine.bytes_sent)
          st.Engine.deliveries st.Engine.dropped st.Engine.duplicated;
        Printf.sprintf "duration=%h" r.Gcd_types.duration;
      ]
    @ List.map
        (fun (k, v) -> Printf.sprintf "%s=%d" k v)
        (List.filter pinned_counter (Obs.snapshot_counters ())))

let run_pinned f =
  Obs.reset ();
  session_text (f ())

(* the three sessions run in this order on one fresh world: member DRBGs
   are stateful, so order is part of the pin *)
let sessions () =
  let w = W.create 4321 in
  let _ = W.populate w uids in
  let first n = List.filteri (fun i _ -> i < n) uids in
  let clean = run_pinned (fun () -> W.handshake w (first 4)) in
  let lossy =
    run_pinned (fun () ->
        let faults =
          Faults.create ~drop:0.15 ~duplicate:0.1 ~jitter:0.3 ~seed:42 ()
        in
        W.handshake ~faults ~watchdog:Gcd_types.default_watchdog w uids)
  in
  let byzantine =
    run_pinned (fun () ->
        let adv = Fuzz.byzantine_adversary ~byz:3 ~seed:4242 in
        W.handshake ~adversary:(Adversary.tap adv)
          ~watchdog:Gcd_types.byzantine_watchdog w (first 4))
  in
  [ ("clean ACJT m=4", clean);
    ("lossy m=8, default watchdog", lossy);
    ("Byzantine last seat m=4, graced watchdog", byzantine);
  ]

let pinned =
  [ ("clean ACJT m=4",
     "68d86776017df1a80ae613000043dbae0e64a662bce0ea572f7c0e9350cb06ce");
    ("lossy m=8, default watchdog",
     "df973037b919a2738d778dbd4be3d0fde3954d6de0056f9bbc31c456e99be38d");
    ("Byzantine last seat m=4, graced watchdog",
     "ddbbdc39721623e087ba3c02f74ce52f38b7deb7d8e9aab65be229154e63f5b4");
  ]

let test_pinned_digests () =
  let actual = sessions () in
  (* SHS_PIN_DUMP=1 prints the digested text, to explain a moved digest *)
  if Sys.getenv_opt "SHS_PIN_DUMP" <> None then
    List.iter
      (fun (label, text) ->
        Printf.printf "---- %s (%s)\n%s\n" label (digest text) text)
      actual;
  List.iter2
    (fun (label, text) (label', expected) ->
      assert (label = label');
      Alcotest.(check string) label expected (digest text))
    actual pinned

let () =
  Alcotest.run "session-pin"
    [ ( "run_session",
        [ Alcotest.test_case "pinned session digests" `Quick
            test_pinned_digests ] );
    ]
