(** Kgm_resilience — the failure-handling substrate of KGModel.

    Long chases (the paper reports ~160 minutes of reasoning on the
    production company KG) need the machinery real reasoners ship:
    - {!Token}: cooperative cancellation with optional wall-clock
      deadlines, checked at round boundaries and inside pool workers;
    - {!Faults}: a seeded, deterministic fault-injection harness that
      probabilistically fails at named sites ([KGM_FAULTS]), used by the
      tests to prove the failure paths actually work;
    - {!Retry}: bounded retry with exponential backoff for transient
      faults;
    - {!Snapshot}: versioned, atomically-written, digest-checked
      on-disk blobs — the carrier of the engine's checkpoint/resume
      protocol. *)

open Kgm_common

exception Interrupted of [ `Cancelled | `Deadline ]
exception Fault of string

let () =
  Printexc.register_printer (function
    | Interrupted `Cancelled -> Some "Kgm_resilience.Interrupted(cancelled)"
    | Interrupted `Deadline -> Some "Kgm_resilience.Interrupted(deadline)"
    | Fault site -> Some (Printf.sprintf "Kgm_resilience.Fault(%s)" site)
    | _ -> None)

(* ------------------------------------------------------------------ *)

module Token = struct
  (* The flag is atomic so a signal handler or another domain may trip
     it while pool workers poll it; the deadline is immutable. A
     [deadline_s] is measured from token creation on the monotonic
     clock, so wall-clock adjustments never fire it spuriously. *)
  type t = {
    cancelled : bool Atomic.t;
    deadline : float option;  (* absolute, Clock.now () scale *)
  }

  let create ?deadline_s () =
    { cancelled = Atomic.make false;
      deadline =
        Option.map (fun d -> Kgm_telemetry.Clock.now () +. d) deadline_s }

  let none = { cancelled = Atomic.make false; deadline = None }

  let cancel t = Atomic.set t.cancelled true
  let cancelled t = Atomic.get t.cancelled

  let deadline_exceeded t =
    match t.deadline with
    | None -> false
    | Some d -> Kgm_telemetry.Clock.now () > d

  let remaining_s t =
    match t.deadline with
    | None -> None
    | Some d -> Some (Float.max 0. (d -. Kgm_telemetry.Clock.now ()))

  let status t =
    if Atomic.get t.cancelled then `Cancelled
    else if deadline_exceeded t then `Deadline
    else `Ok

  let check t =
    match status t with
    | `Ok -> ()
    | `Cancelled -> raise (Interrupted `Cancelled)
    | `Deadline -> raise (Interrupted `Deadline)
end

(* ------------------------------------------------------------------ *)

module Faults = struct
  (* One registered rate per site name. Draws are deterministic given
     (seed, site, draw index): the index comes from a per-site atomic
     counter, so the NUMBER of injected faults for a given call count is
     reproducible — under a parallel schedule only WHICH caller observes
     a given draw may vary, which retry/crash-recovery tests absorb by
     construction. *)
  type site = {
    rate : float;
    drawn : int Atomic.t;     (* draws taken at this site *)
    injected : int Atomic.t;  (* draws that failed *)
  }

  let sites_tbl : (string, site) Hashtbl.t = Hashtbl.create 8
  let seed = ref 0
  let active_flag = ref false

  let reset () =
    Hashtbl.reset sites_tbl;
    seed := 0;
    active_flag := false

  let set_rate name rate =
    let rate = Float.max 0. (Float.min 1. rate) in
    Hashtbl.replace sites_tbl name
      { rate; drawn = Atomic.make 0; injected = Atomic.make 0 };
    active_flag := true

  (* Spec grammar: "site:rate[,site:rate...][,seed=N]", e.g.
     "worker:0.05,checkpoint_write:0.2,seed=42". *)
  let configure spec =
    List.iter
      (fun part ->
        let part = String.trim part in
        if part <> "" then
          match String.index_opt part ':' with
          | Some i ->
              let name = String.sub part 0 i in
              let rate =
                String.sub part (i + 1) (String.length part - i - 1)
              in
              (match float_of_string_opt rate with
               | Some r -> set_rate name r
               | None ->
                   Kgm_error.validate_error
                     "KGM_FAULTS: bad rate %S for site %s" rate name)
          | None -> (
              match String.index_opt part '=' with
              | Some i when String.sub part 0 i = "seed" ->
                  (match
                     int_of_string_opt
                       (String.sub part (i + 1) (String.length part - i - 1))
                   with
                   | Some s -> seed := s
                   | None ->
                       Kgm_error.validate_error "KGM_FAULTS: bad seed in %S"
                         part)
              | _ ->
                  Kgm_error.validate_error
                    "KGM_FAULTS: cannot parse %S (want site:rate or seed=N)"
                    part))
      (String.split_on_char ',' spec)

  let configure_from_env () =
    match Sys.getenv_opt "KGM_FAULTS" with
    | Some spec when String.trim spec <> "" ->
        configure spec;
        true
    | _ -> false

  (* The saved sites keep their draw counters, so once [f] is done an
     enclosing configuration draws on from where it stopped. *)
  let with_spec spec f =
    let saved = Hashtbl.copy sites_tbl
    and seed0 = !seed
    and active0 = !active_flag in
    reset ();
    Fun.protect
      ~finally:(fun () ->
        Hashtbl.reset sites_tbl;
        Hashtbl.iter (Hashtbl.replace sites_tbl) saved;
        seed := seed0;
        active_flag := active0)
      (fun () ->
        configure spec;
        f ())

  let active () = !active_flag

  (* splitmix64: a high-quality, allocation-free mix of (seed, site,
     draw index) into a uniform 64-bit word. *)
  let splitmix64 x =
    let open Int64 in
    let x = add x 0x9E3779B97F4A7C15L in
    let x = mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
    let x = mul (logxor x (shift_right_logical x 27)) 0x94D049BB133111EBL in
    logxor x (shift_right_logical x 31)

  let draw_fails rate ~site_hash ~n =
    let h =
      splitmix64
        (Int64.add
           (Int64.of_int (!seed * 0x1000003 + site_hash))
           (splitmix64 (Int64.of_int n)))
    in
    (* map to [0,1) using the top 53 bits *)
    let u =
      Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.
    in
    u < rate

  let inject name =
    if !active_flag then
      match Hashtbl.find_opt sites_tbl name with
      | None -> ()
      | Some s ->
          let n = Atomic.fetch_and_add s.drawn 1 in
          if draw_fails s.rate ~site_hash:(Hashtbl.hash name) ~n then begin
            ignore (Atomic.fetch_and_add s.injected 1);
            raise (Fault name)
          end

  let site_count name =
    match Hashtbl.find_opt sites_tbl name with
    | None -> 0
    | Some s -> Atomic.get s.injected

  let total_injected () =
    Hashtbl.fold (fun _ s acc -> acc + Atomic.get s.injected) sites_tbl 0

  let sites () =
    Hashtbl.fold (fun name s acc -> (name, s.rate) :: acc) sites_tbl []
    |> List.sort compare
end

(* ------------------------------------------------------------------ *)

module Retry = struct
  let default_retry_on = function Fault _ -> true | _ -> false

  (* Deterministic draw stream for the jitter: splitmix64 over a
     process-global counter, so sleep schedules are reproducible within
     a process without consuming the global Random state. *)
  let jitter_ctr = Atomic.make 0

  let jitter_draw () =
    let n = Atomic.fetch_and_add jitter_ctr 1 in
    let open Int64 in
    let x = add (of_int n) 0x9E3779B97F4A7C15L in
    let x = mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
    let x = mul (logxor x (shift_right_logical x 27)) 0x94D049BB133111EBL in
    let h = logxor x (shift_right_logical x 31) in
    Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.

  let with_backoff ?(attempts = 3) ?(base_s = 0.001) ?(max_s = 0.5)
      ?(jitter = true) ?(cancel = Token.none) ?(retry_on = default_retry_on)
      ?on_retry f =
    let attempts = max 1 attempts in
    (* decorrelated jitter (the AWS backoff strategy): each sleep is
       uniform in [base, 3 * previous], so concurrent retriers that
       failed together spread out instead of re-colliding in lockstep;
       without jitter, classic exponential base * 2^k. Either way the
       sleep is capped by [max_s] and by whatever monotonic deadline
       the caller's [cancel] token carries — a retry must never outlive
       the request that issued it. *)
    let prev_sleep = ref base_s in
    let rec go n =
      try f ()
      with
      | e when n + 1 < attempts && retry_on e && Token.status cancel = `Ok ->
          (match on_retry with
           | Some k -> k ~attempt:(n + 1) e
           | None -> ());
          let delay =
            if jitter then
              base_s +. (jitter_draw () *. ((!prev_sleep *. 3.) -. base_s))
            else base_s *. Float.of_int (1 lsl n)
          in
          let delay = Float.min delay max_s in
          prev_sleep := Float.max base_s delay;
          let delay =
            match Token.remaining_s cancel with
            | Some r -> Float.min delay r
            | None -> delay
          in
          if delay > 0. then Unix.sleepf delay;
          if Token.status cancel = `Ok then go (n + 1) else raise e
    in
    go 0
end

(* ------------------------------------------------------------------ *)

module Snapshot = struct
  (* On-disk layout: a 4-line ASCII header (magic, kind, version,
     payload digest) followed by the Marshal payload. The digest makes
     a torn or bit-rotted snapshot a clean Storage error instead of a
     segfault inside Marshal; the kind/version pair makes a format
     evolution a clean error instead of silent garbage. Writes go to a
     temp file in the same directory and are renamed into place, so a
     crash mid-write (or an injected "checkpoint_write" fault) never
     clobbers the previous snapshot. *)

  let magic = "KGMSNAP1"

  let path ~dir ~kind ~seq = Filename.concat dir (Printf.sprintf "%s-%06d.snap" kind seq)

  let parse_seq ~kind file =
    let prefix = kind ^ "-" and suffix = ".snap" in
    let lp = String.length prefix and ls = String.length suffix in
    let n = String.length file in
    if
      n > lp + ls
      && String.sub file 0 lp = prefix
      && String.sub file (n - ls) ls = suffix
    then int_of_string_opt (String.sub file lp (n - lp - ls))
    else None

  let list ~dir ~kind =
    if not (Sys.file_exists dir) then []
    else
      Sys.readdir dir |> Array.to_list
      |> List.filter_map (fun f ->
             Option.map
               (fun seq -> (seq, Filename.concat dir f))
               (parse_seq ~kind f))
      |> List.sort compare

  let latest ~dir ~kind =
    match List.rev (list ~dir ~kind) with
    | (_, p) :: _ -> Some p
    | [] -> None

  let save ~kind ~version ~path payload =
    Faults.inject "checkpoint_write";
    let body = Marshal.to_string payload [] in
    let digest = Digest.to_hex (Digest.string body) in
    let dir = Filename.dirname path in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Printf.fprintf oc "%s\n%s\n%d\n%s\n" magic kind version digest;
        output_string oc body);
    Sys.rename tmp path

  let load ~kind ~version ~path =
    if not (Sys.file_exists path) then
      Kgm_error.raise_error_ctx Kgm_error.Storage
        [ ("snapshot", path) ]
        "snapshot not found";
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let fail fmt =
          Kgm_error.raise_error_ctx Kgm_error.Storage
            [ ("snapshot", path) ]
            fmt
        in
        let line () = try input_line ic with End_of_file -> fail "truncated snapshot header" in
        if line () <> magic then fail "not a KGModel snapshot (bad magic)";
        let k = line () in
        if k <> kind then fail "snapshot kind mismatch: %s (want %s)" k kind;
        let v = line () in
        if int_of_string_opt v <> Some version then
          fail "snapshot version %s not supported (want %d)" v version;
        let digest = line () in
        let body =
          let buf = Buffer.create 65536 in
          let chunk = Bytes.create 65536 in
          let rec slurp () =
            let n = input ic chunk 0 (Bytes.length chunk) in
            if n > 0 then begin
              Buffer.add_subbytes buf chunk 0 n;
              slurp ()
            end
          in
          slurp ();
          Buffer.contents buf
        in
        if Digest.to_hex (Digest.string body) <> digest then
          fail "snapshot payload corrupt (digest mismatch)";
        Marshal.from_string body 0)

  (* Generation rotation: a long-lived writer (periodic engine
     checkpoints, the server's session snapshots) calls this right
     after a successful [save], so the newest retained generation is
     always one that just passed through the atomic write path. [keep]
     is clamped to >= 1 — the generation a recovery would start from is
     never deleted — and each removal is a single unlink, atomic with
     respect to concurrent readers that already opened the file. *)
  let gc ~dir ~kind ~keep =
    let keep = max 1 keep in
    let files = list ~dir ~kind in
    let n = List.length files in
    if n <= keep then []
    else begin
      let doomed = List.filteri (fun i _ -> i < n - keep) files in
      List.filter_map
        (fun (_, p) ->
          match Sys.remove p with
          | () -> Some p
          | exception Sys_error _ -> None)
        doomed
    end
end

(* ------------------------------------------------------------------ *)

module Framed = struct
  (* One record: a header line [seq len payload-md5 header-md5] and
     [len] payload bytes. The header digest (over the first three
     fields) makes a flipped length a detectable corruption rather than
     a plausible torn tail; the payload digest does the same for the
     body. Only the last record of a file may fail either check and be
     dropped as torn — a crash mid-append leaves exactly that. *)

  type writer = { w_path : string; w_oc : out_channel }

  let create ~path =
    let dir = Filename.dirname path in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    { w_path = path;
      w_oc =
        open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644
          path }

  let writer_path w = w.w_path
  let close w = close_out_noerr w.w_oc

  let head_digest fields = String.sub (Digest.to_hex (Digest.string fields)) 0 8

  let append w ~seq payload =
    Faults.inject "checkpoint_write";
    let fields =
      Printf.sprintf "%d %d %s" seq (String.length payload)
        (Digest.to_hex (Digest.string payload))
    in
    let head = fields ^ " " ^ head_digest fields ^ "\n" in
    output_string w.w_oc head;
    output_string w.w_oc payload;
    flush w.w_oc;
    String.length head + String.length payload

  let read ~path =
    if not (Sys.file_exists path) then []
    else begin
      let ic = open_in_bin path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let n = String.length s in
      let corrupt what =
        Kgm_error.raise_error_ctx Kgm_error.Storage [ ("log", path) ]
          "log record %s" what
      in
      let header line =
        match String.split_on_char ' ' line with
        | [ seq; len; digest; check ] -> (
            let fields = String.concat " " [ seq; len; digest ] in
            match (int_of_string_opt seq, int_of_string_opt len) with
            | Some seq, Some len when len >= 0 && head_digest fields = check ->
                Some (seq, len, digest)
            | _ -> None)
        | _ -> None
      in
      let rec go pos acc =
        if pos >= n then List.rev acc
        else
          match String.index_from_opt s pos '\n' with
          | None -> List.rev acc (* torn header *)
          | Some nl -> (
              let last = nl + 1 >= n in
              match header (String.sub s pos (nl - pos)) with
              | None -> if last then List.rev acc else corrupt "header corrupt"
              | Some (seq, len, digest) ->
                  let start = nl + 1 in
                  if start + len > n then List.rev acc (* torn payload *)
                  else
                    let payload = String.sub s start len in
                    if Digest.to_hex (Digest.string payload) = digest then
                      go (start + len) ((seq, payload) :: acc)
                    else if start + len >= n then List.rev acc
                    else corrupt "payload corrupt (digest mismatch)")
      in
      go 0 []
    end
end
