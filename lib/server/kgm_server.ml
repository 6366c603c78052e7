(* Kgm_server — the long-lived reasoning daemon behind `kgmodel serve`.

   One Incremental.state (the master materialization, mutated only
   under [writer_mu]) and two physical stores that take turns: the
   master, which [maintain] mutates and which records its writes, and
   its twin, frozen and published in an Atomic.t as the current epoch.
   Publishing freezes the master and swaps it in; the retired store,
   once its readers are gone, is thawed, brought up to date by
   replaying the master's change log, and becomes the next master —
   O(batch), not O(store). Readers load the current epoch with one
   atomic read, pin it while they evaluate, and answer against it — no
   reader ever blocks on a writer, and every response is stamped with
   the epoch id it was computed from. Each applied batch is appended to
   the session log before it is acknowledged. The wire protocol is a
   hand-rolled HTTP/1.1 subset over a Unix-domain socket — persistent
   connections with pipelining (bytes read past one request's
   content-length carry over into the next), a per-connection idle
   timeout and request cap, `connection: close` only on demand, cap,
   or drain — enough for curl, the bundled Client and the chaos
   harness, with no external dependency.

   Threading: one acceptor thread (select with a short timeout so it
   notices the drain flag) feeding a pool of N reader *domains*
   (Kgm_pool.Service) behind a bounded admission gate — readers answer
   against immutable frozen epochs, so they parallelize without locks
   (systhreads would serialize on the runtime lock). A small shed
   thread owns every 503-at-the-door write so a slow or dead client
   can never stall the acceptor. The caller's thread parks in
   run_until_drained as the drain coordinator. The telemetry collector
   is not thread-safe, so every collector mutation and export happens
   under [writer_mu]; per-domain statistics live in Atomics sampled by
   registered gauges at export time. *)

module R = Kgm_vadalog.Rule
module DB = Kgm_vadalog.Database
module Inc = Kgm_vadalog.Incremental
module E = Kgm_vadalog.Engine
module Err = Kgm_common.Kgm_error
module Token = Kgm_resilience.Token
module Faults = Kgm_resilience.Faults
module Retry = Kgm_resilience.Retry
module Snapshot = Kgm_resilience.Snapshot
module Journal = Kgm_telemetry.Journal
module J = Kgm_telemetry.Json

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* ------------------------------------------------------------------ *)
(* Update batches                                                      *)

module Batch = struct
  type sign = [ `Ins | `Ret ]

  let parse_line lineno line =
    let line = String.trim line in
    if line = "" || line.[0] = '%' then []
    else begin
      let sign, rest =
        match line.[0] with
        | '+' -> (`Ins, String.sub line 1 (String.length line - 1))
        | '-' -> (`Ret, String.sub line 1 (String.length line - 1))
        | _ -> (`Ins, line)
      in
      let reject msg =
        Err.raise_error_ctx Err.Validate
          [ ("line", string_of_int lineno); ("text", line) ]
          "%s" msg
      in
      match Kgm_vadalog.Parser.parse_facts rest with
      | exception Err.Error e -> reject ("batch: " ^ e.Err.message)
      | Ok facts -> List.map (fun pf -> (sign, pf)) facts
      | Error `Rule -> reject "a batch line must be a ground fact, not a rule"
      | Error `No_fact -> reject "batch: no fact on this line"
    end

  let parse text =
    String.split_on_char '\n' text
    |> List.mapi (fun i line -> parse_line (i + 1) line)
    |> List.concat

  let split batch =
    let pick s =
      List.filter_map (fun (s', pf) -> if s' = s then Some pf else None) batch
    in
    (pick `Ins, pick `Ret)
end

(* ------------------------------------------------------------------ *)
(* Session persistence                                                 *)

let session_kind = "session"
let session_version = 4

(* A base is a [session_head], then chunks of at most [edb_chunk] EDB
   facts in {!Inc.edb_facts} order, ended by an empty chunk: it streams
   from the EDB store to the file, never holding the EDB as one list or
   one string. Derived facts are deliberately absent: recovery
   re-chases, which keeps snapshots small and makes a restore
   verifiable against the program instead of trusting a marshaled
   closure. *)
type session_head = { sh_fingerprint : string; sh_epoch : int }
type session_chunk = (string * Kgm_common.Value.t array) list

let edb_chunk = 4096

let strip ph = { ph with R.facts = [] }

let fingerprint phases =
  Digest.to_hex
    (Digest.string
       (String.concat "\n%%phase%%\n"
          (List.map (fun ph -> R.program_to_string (strip ph)) phases)))

(* A generation is a base snapshot plus the log of the batches applied
   after it, [session-SEQ.snap] and [session-SEQ.log] *)
let session_log base = Filename.remove_extension base ^ ".log"

let save_session ~dir ~keep ~epoch st =
  (* rotation keeps the highest-numbered generations, so a base
     numbered below one already here could be the one it deletes *)
  (match List.rev (Snapshot.list ~dir ~kind:session_kind) with
  | (seq, newer) :: _ when seq > epoch ->
      Err.raise_error_ctx Err.Storage
        [ ("path", newer) ]
        "session epoch %d is older than generation %d already in %s" epoch
        seq dir
  | _ -> ());
  let path = Snapshot.path ~dir ~kind:session_kind ~seq:epoch in
  Snapshot.save_with ~kind:session_kind ~version:session_version ~path
    (fun oc ->
      Marshal.to_channel oc
        { sh_fingerprint = fingerprint (Inc.phases st); sh_epoch = epoch }
        [];
      let chunk = ref [] and n = ref 0 in
      let write_chunk () =
        Marshal.to_channel oc (List.rev !chunk : session_chunk) [];
        chunk := [];
        n := 0
      in
      Inc.iter_edb st (fun p f ->
          chunk := (p, f) :: !chunk;
          incr n;
          if !n = edb_chunk then write_chunk ());
      if !n > 0 then write_chunk ();
      Marshal.to_channel oc ([] : session_chunk) []);
  List.iter
    (fun old -> try Sys.remove (session_log old) with Sys_error _ -> ())
    (Snapshot.gc ~dir ~kind:session_kind ~keep);
  path

(* one logged batch, as [maintain] received it *)
type session_record =
  (string * Kgm_common.Value.t array) list
  * (string * Kgm_common.Value.t array) list

let recover ?options ?telemetry ?journal ~dir phases =
  if phases = [] then invalid_arg "Kgm_server.recover: empty pipeline";
  let jr = Option.value journal ~default:Journal.null in
  let expected = fingerprint phases in
  let gens = List.rev (Snapshot.list ~dir ~kind:session_kind) in
  let rec try_gens = function
    | [] -> None
    | (_seq, path) :: older -> (
        match
          (* the base EDB, chunk by chunk *)
          let db = DB.create () in
          let base_epoch =
            Snapshot.load_with ~kind:session_kind ~version:session_version
              ~path (fun ic ->
                let (head : session_head) = Marshal.from_channel ic in
                if head.sh_fingerprint <> expected then
                  Err.raise_error_ctx Err.Storage
                    [ ("path", path) ]
                    "session snapshot was written by a different program";
                let rec chunks () =
                  match (Marshal.from_channel ic : session_chunk) with
                  | [] -> ()
                  | facts ->
                      ignore (DB.apply_batch db ~retracts:[] ~inserts:facts);
                      chunks ()
                in
                chunks ();
                head.sh_epoch)
          in
          (* the complete records that continue the base, epoch by
             epoch; the log's torn tail, if any, is already gone *)
          let rec consecutive epoch = function
            | (seq, payload) :: rest when seq = epoch + 1 ->
                let r : session_record = Marshal.from_string payload 0 in
                let epoch, rs = consecutive seq rest in
                (epoch, r :: rs)
            | _ -> (epoch, [])
          in
          let epoch, records =
            consecutive base_epoch
              (Kgm_resilience.Framed.read ~path:(session_log path))
          in
          (* each record's batch applied the way [maintain] commits it *)
          List.iter
            (fun ((inserts, retracts) : session_record) ->
              ignore (DB.apply_batch db ~retracts ~inserts))
            records;
          (* facts-stripped phases: the snapshot's EDB already contains
             the program's inline facts, including any later retracted
             by updates — re-adding them from the rule text would
             resurrect retractions *)
          let st, _stats =
            Inc.chase_phases ?options ?telemetry ?journal ~db
              (List.map strip phases)
          in
          (st, epoch, List.length records)
        with
        | st, epoch, records ->
            if Journal.enabled jr then
              Journal.emit jr "server.recover"
                [ ("path", J.Str path);
                  ("epoch", J.Int epoch);
                  ("records", J.Int records);
                  ("facts", J.Int (DB.total (Inc.db st))) ];
            Some (st, epoch, path)
        | exception Err.Error e ->
            if Journal.enabled jr then
              Journal.emit jr "server.recover.reject"
                [ ("path", J.Str path); ("error", J.Str (Err.to_string e)) ];
            try_gens older)
  in
  try_gens gens

(* ------------------------------------------------------------------ *)
(* HTTP/1.1 subset                                                     *)

type req = {
  meth : string;
  path : string;
  headers : (string * string) list;  (* keys lowercased *)
  body : string;
}

let header req k = List.assoc_opt k req.headers

(* Bytes read off a socket and not consumed yet: [lo, hi) of [b]. Both
   ends of the wire frame in place here: a head is found by scanning
   these bytes, a request or response is cut out of them once, and
   the bytes past it — a pipelined successor — stay where they are for
   the next call. Offsets handed out are relative to [lo], so they
   survive a [fill] that compacts or grows the buffer. *)
module Inbuf = struct
  type t = {
    mutable b : Bytes.t;
    mutable lo : int;
    mutable hi : int;
    mutable seen : int;  (* from [lo]: no head ends before this *)
  }

  let initial = 8192

  let create () = { b = Bytes.create initial; lo = 0; hi = 0; seen = 0 }
  let length ib = ib.hi - ib.lo

  (* offset of the blank line ending a head, [-1] while none is in;
     a later call resumes where this one stopped *)
  let find_head_end ib =
    let b = ib.b and last = ib.hi - 4 in
    let rec go i =
      if i > last then begin
        ib.seen <- i - ib.lo;
        -1
      end
      else if
        Bytes.get b i = '\r'
        && Bytes.get b (i + 1) = '\n'
        && Bytes.get b (i + 2) = '\r'
        && Bytes.get b (i + 3) = '\n'
      then i - ib.lo
      else go (i + 1)
    in
    go (ib.lo + ib.seen)

  (* one read(2) into the free tail, made at least [want] bytes long
     (compacting first, growing when that is not enough); 0 at EOF *)
  let fill ib fd ~want =
    let cap = Bytes.length ib.b and live = length ib in
    if cap - ib.hi < want then begin
      let b =
        if live + want <= cap then ib.b
        else Bytes.create (max (2 * cap) (live + want))
      in
      Bytes.blit ib.b ib.lo b 0 live;
      ib.b <- b;
      ib.lo <- 0;
      ib.hi <- live
    end;
    let n = Unix.read fd ib.b ib.hi (Bytes.length ib.b - ib.hi) in
    ib.hi <- ib.hi + n;
    n

  let sub ib off len = Bytes.sub_string ib.b (ib.lo + off) len

  (* drop the first [n] bytes; an emptied buffer starts over at its
     front, and at its initial size once a large message is through *)
  let consume ib n =
    ib.lo <- ib.lo + n;
    ib.seen <- 0;
    if ib.lo = ib.hi then begin
      ib.lo <- 0;
      ib.hi <- 0;
      if Bytes.length ib.b > 8 * initial then ib.b <- Bytes.create initial
    end
end

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      let w = Unix.write_substring fd s off (n - off) in
      go (off + w)
  in
  go 0

let reason_of = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> "Status"

(* a response head, assembled with plain Buffer pushes — this runs once
   per request, and interpreted Printf formats are measurable at six
   figures of requests per second *)
let add_head b ~keep_alive status extra ~body_len =
  Buffer.add_string b "HTTP/1.1 ";
  Buffer.add_string b (string_of_int status);
  Buffer.add_char b ' ';
  Buffer.add_string b (reason_of status);
  Buffer.add_string b "\r\ncontent-type: text/plain; charset=utf-8\r\n";
  Buffer.add_string b "content-length: ";
  Buffer.add_string b (string_of_int body_len);
  Buffer.add_string b
    (if keep_alive then "\r\nconnection: keep-alive\r\n"
     else "\r\nconnection: close\r\n");
  List.iter
    (fun (k, v) ->
      Buffer.add_string b k;
      Buffer.add_string b ": ";
      Buffer.add_string b v;
      Buffer.add_string b "\r\n")
    extra;
  Buffer.add_string b "\r\n"

let max_head = 65536
let max_body = 8_000_000

let parse_head_lines head =
  match String.split_on_char '\r' head |> List.map String.trim with
  | [] -> None
  | first :: rest ->
      let headers =
        List.filter_map
          (fun line ->
            match String.index_opt line ':' with
            | None -> None
            | Some i ->
                Some
                  ( String.lowercase_ascii (String.sub line 0 i),
                    String.trim
                      (String.sub line (i + 1) (String.length line - i - 1))
                  ))
          rest
      in
      Some (first, headers)

(* Answers wait in [out] until the connection would block for input,
   closes, or holds [out_max] bytes; a flush writes them through
   [wbuf] in [out_max]-byte write(2)s. [body] is the answer being
   rendered. [served] counts requests toward the per-connection cap. *)
type conn = {
  c_fd : Unix.file_descr;
  c_in : Inbuf.t;
  mutable c_served : int;
  c_body : Buffer.t;
  c_out : Buffer.t;
  mutable c_wbuf : Bytes.t;
}

(* one write(2) moves at most this much: the runtime's IO buffer *)
let out_max = 65536

let make_conn fd =
  {
    c_fd = fd;
    c_in = Inbuf.create ();
    c_served = 0;
    c_body = Buffer.create 1024;
    c_out = Buffer.create 4096;
    c_wbuf = Bytes.empty;
  }

(* write(2) until [len] bytes of [b] from [off] are out, counting each
   call into [writes] before it is made *)
let rec write_counted writes fd b off len =
  if len > 0 then begin
    Atomic.incr writes;
    let n = Unix.single_write fd b off len in
    write_counted writes fd b (off + n) (len - n)
  end

(* Write the held answers, [false] when the peer is gone. They go
   through the reused [wbuf] and never through [Buffer.contents]: a
   window's answers are past 256 words, so that string would be a
   major-heap allocation per window. *)
let flush writes conn =
  let out = conn.c_out in
  let len = Buffer.length out in
  let rec go off =
    if off < len then begin
      let n = min out_max (len - off) in
      if Bytes.length conn.c_wbuf < n then begin
        let rec pow2 k = if k >= n then k else pow2 (2 * k) in
        conn.c_wbuf <- Bytes.create (min out_max (pow2 4096))
      end;
      Buffer.blit out off conn.c_wbuf 0 n;
      write_counted writes conn.c_fd conn.c_wbuf 0 n;
      go (off + n)
    end
  in
  let ok =
    match go 0 with () -> true | exception Unix.Unix_error _ -> false
  in
  if len > out_max then Buffer.reset out else Buffer.clear out;
  ok

(* Read one request off a persistent connection.

   [`Close] is the clean end of the connection (peer EOF between
   requests, idle timeout, a drain request while waiting for new
   bytes, or a peer that stopped taking answers); [`Err] is a protocol
   or transport failure worth a [400] before closing. Before every
   wait for bytes the answers held so far are written ([writes] counts
   the write(2)s), so a window that arrived in one read is answered
   with one write, and a client waiting for its answers before it
   sends more always gets them. Between requests the wait for the
   first byte is a short-tick select bounded by [idle_s], polled
   against [draining] so an idle keep-alive connection never delays a
   drain; once a request has started arriving, reads run under the
   socket's SO_RCVTIMEO ([io_timeout_s]), so a slowloris half-request
   times out as an error rather than holding a reader forever. Bytes
   past this request's content-length stay buffered for the next
   call. *)
let read_request ~writes ~idle_s ~draining conn =
  let ib = conn.c_in in
  let recv ~want =
    if not (flush writes conn) then `Broken
    else
      match Inbuf.fill ib conn.c_fd ~want with
      | 0 -> `Eof
      | _ -> `Data
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> `Timeout
      | exception Unix.Unix_error (e, _, _) -> `Fail (Unix.error_message e)
  in
  let rec await_first budget =
    if draining () then `Close
    else if budget <= 0. then `Close (* idle timeout *)
    else
      let tick = Float.min 0.05 budget in
      match Unix.select [ conn.c_fd ] [] [] tick with
      | [], _, _ -> await_first (budget -. tick)
      | _ -> `Ready
      | exception Unix.Unix_error (EINTR, _, _) -> await_first budget
  in
  let rec read_head () =
    let head_len = Inbuf.find_head_end ib in
    if head_len >= 0 then read_body head_len
    else if Inbuf.length ib > max_head then `Err "request head too large"
    else if Inbuf.length ib = 0 then
      if not (flush writes conn) then `Close
      else
        match await_first idle_s with
        | `Close -> `Close
        | `Ready -> (
            match recv ~want:2048 with
            | `Data -> read_head ()
            | `Eof | `Timeout | `Broken -> `Close (* clean close between requests *)
            | `Fail m -> `Err m)
    else
      match recv ~want:2048 with
      | `Data -> read_head ()
      | `Eof -> `Err "connection closed mid-request"
      | `Timeout -> `Err "read timeout"
      | `Broken -> `Close
      | `Fail m -> `Err m
  and read_body head_len =
    match parse_head_lines (Inbuf.sub ib 0 head_len) with
    | None -> `Err "empty request"
    | Some (first, headers) -> (
        (* content-length is 1*DIGIT: not the signs, [0x]/[0o]/[0b]
           prefixes and [_] separators [int_of_string] also reads, and
           repeated headers must agree — otherwise this server would
           frame a body no other HTTP peer would *)
        let decimal v =
          if v <> "" && String.for_all (fun c -> '0' <= c && c <= '9') v then
            Option.value (int_of_string_opt v) ~default:(-1)
          else -1
        in
        let clen =
          match
            List.filter_map
              (fun (k, v) ->
                if k = "content-length" then Some (decimal v) else None)
              headers
          with
          | [] -> 0
          | n :: rest -> if List.for_all (( = ) n) rest then n else -1
        in
        if clen < 0 || clen > max_body then `Err "bad content-length"
        else
          let total = head_len + 4 + clen in
          let rec fill () =
            if Inbuf.length ib >= total then begin
              let body = Inbuf.sub ib (head_len + 4) clen in
              Inbuf.consume ib total;
              match String.split_on_char ' ' first with
              | meth :: path :: _ -> `Req { meth; path; headers; body }
              | _ -> `Err "malformed request line"
            end
            else
              match recv ~want:(max 2048 (total - Inbuf.length ib)) with
              | `Data -> fill ()
              | `Eof -> `Err "connection closed mid-body"
              | `Timeout -> `Err "read timeout"
              | `Broken -> `Close
              | `Fail m -> `Err m
          in
          fill ())
  in
  read_head ()

(* ------------------------------------------------------------------ *)
(* Pattern queries                                                     *)

(* a query body is either a bare predicate name (all its facts) or a
   pattern like [controls(a, X)] — constants bind positions, variables
   project, a repeated variable joins within the fact. Parsed as one
   atom by the Vadalog parser, so the constant syntax (strings,
   numbers, dates, ...) is exactly the language's own. A pattern is
   compiled once per query text: its bound positions with their
   constants (the index probe) and the positions of each repeated
   variable (the in-fact join), so evaluating it builds nothing per
   request. *)
type query =
  | Q_pred of string
  | Q_pattern of {
      pred : string;
      arity : int;
      positions : int list;  (* bound, ascending *)
      key : Kgm_common.Value.t list;  (* their constants *)
      joins : int array array;  (* positions of each repeated variable *)
    }

let compile_pattern atom =
  let args = Array.of_list atom.R.args in
  let bound =
    List.filter_map
      (fun i ->
        match args.(i) with
        | Kgm_vadalog.Term.Const v -> Some (i, v)
        | Kgm_vadalog.Term.Var _ -> None)
      (List.init (Array.length args) Fun.id)
  in
  let joins =
    let tbl = Hashtbl.create 4 in
    Array.iteri
      (fun i t ->
        match t with
        | Kgm_vadalog.Term.Var v when v <> "" && v.[0] <> '_' ->
            Hashtbl.replace tbl v
              (i :: (try Hashtbl.find tbl v with Not_found -> []))
        | _ -> ())
      args;
    Hashtbl.fold
      (fun _ ps acc ->
        if List.length ps > 1 then Array.of_list (List.rev ps) :: acc else acc)
      tbl []
  in
  Q_pattern
    { pred = atom.R.pred;
      arity = Array.length args;
      positions = List.map fst bound;
      key = List.map snd bound;
      joins = Array.of_list joins }

let parse_query body =
  let s = String.trim body in
  let s =
    if s <> "" && s.[String.length s - 1] = '.' then
      String.trim (String.sub s 0 (String.length s - 1))
    else s
  in
  if s = "" then
    Err.raise_error_ctx Err.Validate [] "query: empty pattern";
  if not (String.contains s '(') then Q_pred s
  else
    match Kgm_vadalog.Parser.parse_atom s with
    | atom -> compile_pattern atom
    | exception Err.Error e ->
        Err.raise_error_ctx Err.Validate
          [ ("pattern", s) ]
          "query: %s" e.Err.message

(* one answer line, rendered straight into the answer — this is the
   per-fact inner loop of every query *)
let add_fact_line buf pred fact =
  Buffer.add_string buf pred;
  Buffer.add_char buf '(';
  for i = 0 to Array.length fact - 1 do
    if i > 0 then Buffer.add_string buf ", ";
    Kgm_common.Value.to_buffer buf fact.(i)
  done;
  Buffer.add_string buf ").\n"

(* poll the deadline/drain tokens every so many facts so a scan over a
   large predicate cannot outlive its budget *)
let poll_every = 2048

let eval_query ~poll db q buf =
  let n = ref 0 in
  let seen = ref 0 in
  let emit pred fact =
    incr n;
    add_fact_line buf pred fact
  in
  (match q with
  | Q_pred pred ->
      List.iter
        (fun fact ->
          incr seen;
          if !seen land (poll_every - 1) = 0 then poll ();
          emit pred fact)
        (DB.facts db pred)
  | Q_pattern { pred; arity; positions; key; joins } ->
      let joins_ok fact =
        Array.for_all
          (fun ps ->
            let v = fact.(ps.(0)) in
            Array.for_all (fun p -> Kgm_common.Value.equal v fact.(p)) ps)
          joins
      in
      ignore
        (DB.iter_matches db pred positions key (fun _seq fact ->
             incr seen;
             if !seen land (poll_every - 1) = 0 then poll ();
             if Array.length fact = arity && joins_ok fact then emit pred fact)));
  !n

(* ------------------------------------------------------------------ *)
(* Server                                                              *)

type config = {
  sock : string;
  workers : int;
  queue_capacity : int;
  default_deadline_s : float option;
  io_timeout_s : float;
  idle_timeout_s : float;
  max_requests_per_conn : int;
  state_dir : string option;
  keep : int;
  debug_endpoints : bool;
}

let default_config ~sock =
  { sock;
    workers = 4;
    queue_capacity = 64;
    default_deadline_s = None;
    io_timeout_s = 10.;
    idle_timeout_s = 5.;
    max_requests_per_conn = 100_000;
    state_dir = None;
    keep = 3;
    debug_endpoints = false }

(* an epoch is a frozen store; the first query of a pattern it lacks
   builds the index into it. [ep_pins] counts the /query evaluations
   reading [ep_db] right now: the writer thaws a retired epoch's store
   only once its pins drain to zero. *)
type epoch = {
  ep_id : int;
  ep_db : DB.t;
  ep_facts : int;  (* DB.total at publish *)
  ep_pins : int Atomic.t;
}

let make_epoch id db =
  { ep_id = id; ep_db = db; ep_facts = DB.total db; ep_pins = Atomic.make 0 }

type stats = {
  st_epoch : int;
  st_requests : int;
  st_writes : int;
  st_conns : int;
  st_shed : int;
  st_errors : int;
  st_updates : int;
  st_queue_depth : int;
  st_inflight : int;
  st_faults : int;
}

type t = {
  cfg : config;
  session : Inc.state;
  tele : Kgm_telemetry.t;
  jr : Journal.t;
  epoch : epoch Atomic.t;
  mutable epoch_ctr : int;  (* under writer_mu *)
  writer_mu : Mutex.t;
  (* the store last handed to the session, recording its writes; the
     session holding another one means a re-chase replaced it. Under
     writer_mu, like the persistence state below *)
  mutable master : DB.t;
  (* the current generation's log; [None] makes the next persist write
     a base *)
  mutable log_w : Kgm_resilience.Framed.writer option;
  mutable log_bytes : int;
  mutable base_bytes : int;
  qp_mu : Mutex.t;
  qp_cache : (string, query) Hashtbl.t;  (* query text -> parsed *)
  mutable pool : Unix.file_descr Kgm_pool.Service.t option;
  batch_pool : Kgm_pool.pool;
  (* every maintenance pass's rounds, at the session's [jobs]; it starts
     its domains at the first round with work and keeps them until
     drain, so a batch does not start and join one. Used under
     writer_mu *)
  shed_q : (Unix.file_descr * string) Queue.t;
  shed_mu : Mutex.t;
  shed_cond : Condition.t;
  mutable shed_thread : Thread.t option;
  stop_shed : bool Atomic.t;
  mutable acceptor_thread : Thread.t option;
  mutable listen_fd : Unix.file_descr option;
  started : bool Atomic.t;
  drain_req : bool Atomic.t;
  stop_accept : bool Atomic.t;
  stopped : bool Atomic.t;
  drain_tok : Token.t;
  c_requests : int Atomic.t;
  c_writes : int Atomic.t;
  c_conns : int Atomic.t;
  c_shed : int Atomic.t;
  c_errors : int Atomic.t;
  c_updates : int Atomic.t;
  c_inflight : int Atomic.t;
  c_faults : int Atomic.t;
}

let queue_depth t =
  match t.pool with Some p -> Kgm_pool.Service.pending p | None -> 0

let create ?(telemetry = Kgm_telemetry.null)
    ?(journal = Journal.null) ?(epoch = 0) cfg ~session =
  let cfg =
    { cfg with
      workers = max 1 cfg.workers;
      queue_capacity = max 1 cfg.queue_capacity;
      max_requests_per_conn = max 1 cfg.max_requests_per_conn }
  in
  (* a generation numbered past [epoch] is one recovery rejected: the
     counter starts past it, so the first base this server writes is
     the directory's newest — recovery tries it first and rotation
     removes the rejected ones in their turn, never the base just
     written — and no epoch id names two stores *)
  let epoch =
    match cfg.state_dir with
    | None -> epoch
    | Some dir -> (
        match List.rev (Snapshot.list ~dir ~kind:session_kind) with
        | (seq, _) :: _ when seq > epoch -> seq + 1
        | _ -> epoch)
  in
  (* the initial twin: one of the three times a store is copied (the
     others are the session's EDB at its chase and the batch EDB of a
     re-chase). A copy is array copies of the store's slot buffer and
     flat tables, sharing the facts and the dictionary: no fact is
     re-hashed and no index rebuilt *)
  let master = Inc.db session in
  let twin =
    Kgm_telemetry.with_span telemetry ~cat:"server" "server.twin_copy" (fun () ->
        DB.copy master)
  in
  DB.freeze twin;
  DB.record master true;
  let t =
    { cfg;
      session;
      tele = telemetry;
      jr = journal;
      epoch = Atomic.make (make_epoch epoch twin);
      epoch_ctr = epoch;
      writer_mu = Mutex.create ();
      master;
      log_w = None;
      log_bytes = 0;
      base_bytes = 0;
      qp_mu = Mutex.create ();
      qp_cache = Hashtbl.create 64;
      pool = None;
      batch_pool = Kgm_pool.create (Inc.options session).E.jobs;
      shed_q = Queue.create ();
      shed_mu = Mutex.create ();
      shed_cond = Condition.create ();
      shed_thread = None;
      stop_shed = Atomic.make false;
      acceptor_thread = None;
      listen_fd = None;
      started = Atomic.make false;
      drain_req = Atomic.make false;
      stop_accept = Atomic.make false;
      stopped = Atomic.make false;
      drain_tok = Token.create ();
      c_requests = Atomic.make 0;
      c_writes = Atomic.make 0;
      c_conns = Atomic.make 0;
      c_shed = Atomic.make 0;
      c_errors = Atomic.make 0;
      c_updates = Atomic.make 0;
      c_inflight = Atomic.make 0;
      c_faults = Atomic.make 0 }
  in
  Kgm_telemetry.gauge t.tele "server.epoch" (fun () ->
      (Atomic.get t.epoch).ep_id);
  Kgm_telemetry.gauge t.tele "server.requests" (fun () ->
      Atomic.get t.c_requests);
  Kgm_telemetry.gauge t.tele "server.writes" (fun () ->
      Atomic.get t.c_writes);
  Kgm_telemetry.gauge t.tele "server.connections" (fun () ->
      Atomic.get t.c_conns);
  Kgm_telemetry.gauge t.tele "server.shed" (fun () -> Atomic.get t.c_shed);
  Kgm_telemetry.gauge t.tele "server.errors" (fun () ->
      Atomic.get t.c_errors);
  Kgm_telemetry.gauge t.tele "server.updates" (fun () ->
      Atomic.get t.c_updates);
  Kgm_telemetry.gauge t.tele "server.inflight" (fun () ->
      Atomic.get t.c_inflight);
  Kgm_telemetry.gauge t.tele "server.queue_depth" (fun () -> queue_depth t);
  Kgm_telemetry.gauge t.tele "server.faults_absorbed" (fun () ->
      Atomic.get t.c_faults);
  t

let stats t =
  { st_epoch = (Atomic.get t.epoch).ep_id;
    st_requests = Atomic.get t.c_requests;
    st_writes = Atomic.get t.c_writes;
    st_conns = Atomic.get t.c_conns;
    st_shed = Atomic.get t.c_shed;
    st_errors = Atomic.get t.c_errors;
    st_updates = Atomic.get t.c_updates;
    st_queue_depth = queue_depth t;
    st_inflight = Atomic.get t.c_inflight;
    st_faults = Atomic.get t.c_faults }

let draining t = Atomic.get t.drain_req
let drain t = Atomic.set t.drain_req true

let timed t name f =
  let t0 = Kgm_telemetry.Clock.now () in
  let r = f () in
  Kgm_telemetry.observe t.tele name (Kgm_telemetry.Clock.now () -. t0);
  r

(* A /query's hold on the current epoch: pin, then re-read — a reader
   that lost the race with a swap unpins and takes the new epoch, so a
   retired epoch's pin count only falls *)
let rec pin t =
  let ep = Atomic.get t.epoch in
  Atomic.incr ep.ep_pins;
  if Atomic.get t.epoch == ep then ep
  else begin
    Atomic.decr ep.ep_pins;
    pin t
  end

(* the writer's wait for a retired epoch's readers: a growing sleep,
   never a spin; bounded by the longest evaluation in flight *)
let await_readers ep =
  let rec wait d =
    if Atomic.get ep.ep_pins > 0 then begin
      Unix.sleepf d;
      wait (Float.min 1e-3 (2. *. d))
    end
  in
  wait 2e-5

(* Publish the master as epoch [t.epoch_ctr]. Under writer_mu. The
   "swap" fault site is transient: wrapped in the retry loop, bounded
   by the drain token. A swap that exhausts its retries thaws the
   master and leaves the previous epoch visible — readers stay
   consistent, the master's change log stays pending and the next
   successful publish replays everything since.

   After the swap the retired store waits for its readers, is thawed,
   and replays the master's change log, which makes it an identical
   twin: it becomes the next master, keeping the indexes its readers
   built. When a re-chase replaced the session's store (a fallback, or
   the batch after one that raised), the retired store is unrelated to
   it and the next master is a copy instead. *)
let publish t =
  let db = Inc.db t.session in
  let retired = Atomic.get t.epoch in
  DB.freeze db;
  let ep = make_epoch t.epoch_ctr db in
  (match
     Retry.with_backoff ~attempts:4 ~base_s:0.001 ~cancel:t.drain_tok
       ~on_retry:(fun ~attempt:_ _ -> Atomic.incr t.c_faults)
       (fun () ->
         Faults.inject "swap";
         Atomic.set t.epoch ep)
   with
  | () -> ()
  | exception e ->
      DB.thaw db;
      raise e);
  await_readers retired;
  let next, replayed, copied =
    if db == t.master then begin
      let twin = retired.ep_db in
      DB.thaw twin;
      let n = DB.replay db ~into:twin in
      (twin, n, 0)
    end
    else begin
      let c = DB.copy db in
      DB.thaw c;
      (c, 0, DB.total c)
    end
  in
  DB.record db false;
  DB.record next true;
  Inc.swap_db t.session next;
  t.master <- next;
  if Journal.enabled t.jr then
    Journal.emit t.jr "server.swap"
      [ ("epoch", J.Int ep.ep_id);
        ("facts", J.Int ep.ep_facts);
        ("replayed", J.Int replayed);
        ("copied", J.Int copied) ]

(* ---- persistence: a base per generation, a record per batch ---- *)

let checkpoint_event t kind path bytes =
  if Journal.enabled t.jr then
    Journal.emit t.jr "server.checkpoint"
      [ ("path", J.Str path);
        ("epoch", J.Int t.epoch_ctr);
        ("kind", J.Str kind);
        ("bytes", J.Int bytes) ]

(* persistence failures are absorbed (journaled and counted) — a
   persistence hiccup must not fail the update that triggered it, and
   drain must complete regardless *)
let checkpoint_failed t e =
  Atomic.incr t.c_faults;
  if Journal.enabled t.jr then
    Journal.emit t.jr "server.checkpoint.fail"
      [ ("error", J.Str (Printexc.to_string e)) ]

let close_log t =
  Option.iter Kgm_resilience.Framed.close t.log_w;
  t.log_w <- None

(* a new generation at the current epoch: base snapshot, empty log;
   a failure anywhere leaves no log open, so the next persist writes a
   base again *)
let write_base t dir =
  close_log t;
  match
    let path =
      Retry.with_backoff ~attempts:4 ~base_s:0.002
        ~on_retry:(fun ~attempt:_ _ -> Atomic.incr t.c_faults)
        (fun () ->
          save_session ~dir ~keep:t.cfg.keep ~epoch:t.epoch_ctr t.session)
    in
    let bytes = (Unix.stat path).Unix.st_size in
    (* a log of the same epoch can only hold a torn tail past this
       base (a recovery stopped there): it restarts empty *)
    (path, bytes, Kgm_resilience.Framed.create ~path:(session_log path))
  with
  | path, bytes, log ->
      t.base_bytes <- bytes;
      t.log_bytes <- 0;
      t.log_w <- Some log;
      checkpoint_event t "base" path bytes
  | exception e -> checkpoint_failed t e

(* Persist the session at [t.epoch_ctr]: append [batch] to the
   generation's log — flushed before the batch is acknowledged — or,
   with no batch (start, drain), no open log (a failed append or base)
   or a log grown past its base, write a new base. Under writer_mu. *)
let persist ?batch t =
  match t.cfg.state_dir with
  | None -> ()
  | Some dir ->
      timed t "server.persist" @@ fun () ->
      let appended =
        match (batch, t.log_w) with
        | Some (b : session_record), Some w when t.log_bytes <= t.base_bytes
          -> (
            match
              Kgm_resilience.Framed.append w ~seq:t.epoch_ctr
                (Marshal.to_string b [])
            with
            | bytes ->
                t.log_bytes <- t.log_bytes + bytes;
                checkpoint_event t "append"
                  (Kgm_resilience.Framed.writer_path w)
                  bytes;
                true
            | exception e ->
                (* the log may end in a partial record now: never append
                   to it again *)
                checkpoint_failed t e;
                close_log t;
                false)
        | _ -> false
      in
      if not appended then write_base t dir

(* ---- request routing (worker threads) ---- *)

let ok body = (200, [], body)

let handle_update t body =
  let batch = Batch.parse body in
  let inserts, retracts = Batch.split batch in
  with_lock t.writer_mu (fun () ->
      let u =
        timed t "server.maintain" (fun () ->
            Inc.maintain ~telemetry:t.tele ~journal:t.jr ~pool:t.batch_pool
              t.session ~inserts ~retracts)
      in
      t.epoch_ctr <- t.epoch_ctr + 1;
      Atomic.incr t.c_updates;
      (* durable before visible: an epoch a reader saw is never one a
         crash can lose *)
      persist t ~batch:(inserts, retracts);
      timed t "server.publish" (fun () -> publish t);
      ok
        (Printf.sprintf
           "ok epoch=%d inserted=%d retracted=%d derived=%d deleted=%d \
            rederived=%d rounds=%d strata=%d agg_groups=%d fallback=%b\n"
           t.epoch_ctr u.Inc.u_inserted u.Inc.u_retracted u.Inc.u_derived
           u.Inc.u_deleted u.Inc.u_rederived u.Inc.u_rounds u.Inc.u_strata
           u.Inc.u_agg_groups u.Inc.u_fallback))

let handle_explain t body =
  match Kgm_vadalog.Parser.parse_facts body with
  | Ok [ (pred, fact) ] ->
      with_lock t.writer_mu (fun () ->
          let sup = Inc.support t.session in
          let program =
            match Inc.phases t.session with
            | ph :: _ -> ph
            | [] -> R.empty_program
          in
          let buf = Buffer.create 256 in
          if not (DB.mem (Inc.db t.session) pred fact) then
            Buffer.add_string buf
              (Printf.sprintf "%% not in the database: %s\n"
                 (let s = String.trim body in
                  if String.ends_with ~suffix:"." s then s else s ^ "."));
          Buffer.add_string buf
            (E.explain_tree_to_string (E.explain_tree sup program pred fact));
          ok (Buffer.contents buf))
  | _ ->
      Err.raise_error_ctx Err.Validate
        [ ("fact", body) ]
        "explain expects a single ground fact, e.g. 'control(a, b)'"

let handle_status t =
  let ep = Atomic.get t.epoch in
  let s = stats t in
  ok
    (Printf.sprintf
       "epoch: %d\nfacts: %d\nrequests: %d\nwrites: %d\nconnections: %d\n\
        shed: %d\nerrors: %d\nupdates: %d\nqueue_depth: %d\ninflight: %d\n\
        faults_absorbed: %d\nworkers: %d\nqueue_capacity: %d\ndraining: %b\n"
       ep.ep_id ep.ep_facts s.st_requests s.st_writes s.st_conns s.st_shed
       s.st_errors s.st_updates s.st_queue_depth s.st_inflight s.st_faults
       t.cfg.workers t.cfg.queue_capacity (draining t))

let handle_slow t req tok =
  let dur =
    match float_of_string_opt (String.trim req.body) with
    | Some d when d >= 0. -> Float.min d 30.
    | _ -> 0.05
  in
  let t0 = Kgm_telemetry.Clock.now () in
  let rec loop () =
    Token.check tok;
    Token.check t.drain_tok;
    if Kgm_telemetry.Clock.now () -. t0 < dur then begin
      Unix.sleepf 0.005;
      loop ()
    end
  in
  loop ();
  ok "slept\n"

(* the query surface of a serving workload is a small set of repeated
   shapes: cache text -> compiled query so the Vadalog rule parser runs
   once per shape, not once per request. Compiled queries are
   immutable, so sharing them across reader domains is free; failures
   are not cached (they answer 400 anyway). The facts render straight
   into [body]. *)
let handle_query t tok text body =
  let q =
    match with_lock t.qp_mu (fun () -> Hashtbl.find_opt t.qp_cache text) with
    | Some q -> q
    | None ->
        let q = parse_query text in
        with_lock t.qp_mu (fun () ->
            if Hashtbl.length t.qp_cache < 4096 then
              Hashtbl.replace t.qp_cache text q);
        q
  in
  let poll () =
    Token.check tok;
    Token.check t.drain_tok
  in
  (* pinned only while evaluating into the buffer: a slow client never
     holds back the writer *)
  let ep = pin t in
  let n =
    Fun.protect
      ~finally:(fun () -> Atomic.decr ep.ep_pins)
      (fun () -> eval_query ~poll ep.ep_db q body)
  in
  ( 200,
    [ ("x-kgm-epoch", string_of_int ep.ep_id);
      ("x-kgm-count", string_of_int n) ] )

(* every endpoint but /query: a status, extra headers and a short text *)
let route_text t req tok =
  match (req.meth, req.path) with
  | "GET", "/health" -> ok "ok\n"
  | "GET", "/ready" ->
      if draining t then (503, [], "draining\n") else ok "ready\n"
  | "GET", "/epoch" ->
      ok (Printf.sprintf "%d\n" (Atomic.get t.epoch).ep_id)
  | "GET", "/status" -> handle_status t
  | "GET", "/metrics" ->
      with_lock t.writer_mu (fun () ->
          ( 200,
            [ ("content-type", "text/plain; version=0.0.4") ],
            Kgm_telemetry.prometheus t.tele ))
  | "POST", "/explain" ->
      if draining t then (503, [], "draining\n") else handle_explain t req.body
  | "POST", "/update" ->
      if draining t then (503, [], "draining\n")
      else handle_update t req.body
  | "POST", "/slow" when t.cfg.debug_endpoints -> handle_slow t req tok
  | _, "/health" | _, "/ready" | _, "/epoch" | _, "/status" | _, "/metrics"
  | _, "/query" | _, "/explain" | _, "/update" ->
      (405, [], "method not allowed\n")
  | _ -> (404, [], "unknown endpoint\n")

(* Answer [req] with a status and extra headers; the answer's body is
   rendered into [body]. A deadline header that is not a finite number
   of seconds >= 0 is a 400: dropping it would override the configured
   default, and nan or inf would never expire *)
let route t req body =
  let deadline_s =
    match header req "x-kgm-deadline" with
    | None -> t.cfg.default_deadline_s
    | Some v -> (
        match float_of_string_opt v with
        | Some d when Float.is_finite d && d >= 0. -> Some d
        | _ ->
            Err.raise_error_ctx Err.Validate
              [ ("x-kgm-deadline", v) ]
              "x-kgm-deadline: %S is not a finite number of seconds >= 0" v)
  in
  let tok =
    match deadline_s with
    | Some d -> Token.create ~deadline_s:d ()
    | None -> Token.none
  in
  match (req.meth, req.path) with
  | "POST", "/query" -> handle_query t tok req.body body
  | _ ->
      let status, extra, text = route_text t req tok in
      Buffer.add_string body text;
      (status, extra)

(* One persistent connection, start to close. Requests are answered in
   arrival order; bytes past each request's content-length carry over
   to the next iteration (pipelining). Answers are held and written
   together: when the loop would block for input, once they pass
   [out_max] bytes, and when the connection closes; a write that fails
   ends the connection. The connection closes when the client asks
   ([connection: close]), the per-connection request cap is reached,
   the idle timeout expires, a drain is requested and no buffered
   request remains, or the framing breaks (one [400], then close —
   after a framing error the byte stream cannot be trusted). *)
let serve_conn t fd =
  Atomic.incr t.c_conns;
  let conn = make_conn fd in
  let body = conn.c_body and out = conn.c_out in
  let respond ~keep_alive (status, extra) =
    add_head out ~keep_alive status extra ~body_len:(Buffer.length body);
    Buffer.add_buffer out body;
    if Buffer.length body > out_max then Buffer.reset body
    else Buffer.clear body
  in
  let rec loop () =
    match
      read_request ~writes:t.c_writes ~idle_s:t.cfg.idle_timeout_s
        ~draining:(fun () -> draining t)
        conn
    with
    | `Close -> ()
    | `Err msg ->
        Atomic.incr t.c_errors;
        Buffer.add_string body msg;
        Buffer.add_char body '\n';
        respond ~keep_alive:false (400, [])
    | `Req req ->
        Atomic.incr t.c_requests;
        conn.c_served <- conn.c_served + 1;
        let fail status text =
          Buffer.clear body;
          Buffer.add_string body text;
          (status, [])
        in
        let ((status, _) as answer) =
          try
            Faults.inject "request";
            route t req body
          with
          | Kgm_resilience.Fault site ->
              Atomic.incr t.c_faults;
              fail 500 (Printf.sprintf "fault injected at %s\n" site)
          | Kgm_resilience.Interrupted `Deadline -> fail 504 "deadline\n"
          | Kgm_resilience.Interrupted `Cancelled -> fail 503 "draining\n"
          | Err.Error e -> fail 400 (Err.to_string e ^ "\n")
          | e -> fail 500 ("internal: " ^ Printexc.to_string e ^ "\n")
        in
        if status >= 400 then Atomic.incr t.c_errors;
        let client_close =
          match header req "connection" with
          | Some v -> String.lowercase_ascii (String.trim v) = "close"
          | None -> false
        in
        let keep_alive =
          (not client_close)
          && conn.c_served < t.cfg.max_requests_per_conn
          (* during a drain, finish what the client already pipelined,
             then close instead of waiting for more *)
          && not (draining t && Inbuf.length conn.c_in = 0)
        in
        respond ~keep_alive answer;
        if keep_alive && (Buffer.length out < out_max || flush t.c_writes conn)
        then loop ()
  in
  loop ();
  ignore (flush t.c_writes conn)

(* ---- threads ---- *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* closing a socket with unread inbound bytes makes the kernel send
   RST, which destroys the response we just queued before the client
   can read it — so a shed answer must linger: stop sending, then
   drain whatever the client wrote until it sees our FIN and closes *)
let lingering_close fd =
  (try Unix.shutdown fd SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  (try
     Unix.setsockopt_float fd SO_RCVTIMEO 1.0;
     let junk = Bytes.create 4096 in
     while Unix.read fd junk 0 (Bytes.length junk) > 0 do
       ()
     done
   with Unix.Unix_error _ -> ());
  close_quietly fd

(* the blocking half of a shed: 503 + lingering close. Runs only on
   the shed thread (or the drain coordinator), never on the acceptor *)
let shed_now t fd why =
  let b = Buffer.create 160 in
  add_head b ~keep_alive:false 503 [] ~body_len:(String.length why + 1);
  Buffer.add_string b why;
  Buffer.add_char b '\n';
  (try write_counted t.c_writes fd (Buffer.to_bytes b) 0 (Buffer.length b)
   with Unix.Unix_error _ -> ());
  lingering_close fd;
  if Journal.enabled t.jr then
    Journal.emit t.jr "server.overloaded" [ ("why", J.Str why) ]

(* bound on 503s waiting for the shed thread: past it the connection
   is just closed — under that much pressure the polite answer has
   lost its audience, and the acceptor must never block *)
let max_shed_backlog = 256

(* hand the doomed fd to the shed thread. The acceptor's only cost is
   a queue push: a slow or dead shed target stalls the shed thread (up
   to its own IO timeouts), never the accept loop *)
let shed_async t fd why =
  Atomic.incr t.c_shed;
  Mutex.lock t.shed_mu;
  let backlogged = Queue.length t.shed_q >= max_shed_backlog in
  if not backlogged then begin
    Queue.push (fd, why) t.shed_q;
    Condition.signal t.shed_cond
  end;
  Mutex.unlock t.shed_mu;
  if backlogged then close_quietly fd

let shed_loop t =
  let rec loop () =
    Mutex.lock t.shed_mu;
    while Queue.is_empty t.shed_q && not (Atomic.get t.stop_shed) do
      Condition.wait t.shed_cond t.shed_mu
    done;
    if Queue.is_empty t.shed_q then Mutex.unlock t.shed_mu (* stopping *)
    else begin
      let fd, why = Queue.pop t.shed_q in
      Mutex.unlock t.shed_mu;
      shed_now t fd why;
      loop ()
    end
  in
  loop ()

let handle_conn t fd =
  Atomic.incr t.c_inflight;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr t.c_inflight;
      close_quietly fd)
    (fun () -> serve_conn t fd)

let acceptor_loop t lfd pool =
  while not (Atomic.get t.stop_accept) do
    match Unix.select [ lfd ] [] [] 0.05 with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept ~cloexec:true lfd with
        | exception Unix.Unix_error _ -> ()
        | fd, _ -> (
            match Faults.inject "accept" with
            | exception Kgm_resilience.Fault _ ->
                (* a dropped connection: the client sees a reset, the
                   failure path curl/retry loops exercise *)
                Atomic.incr t.c_faults;
                close_quietly fd
            | () ->
                (try
                   Unix.setsockopt_float fd SO_RCVTIMEO t.cfg.io_timeout_s;
                   Unix.setsockopt_float fd SO_SNDTIMEO t.cfg.io_timeout_s
                 with Unix.Unix_error _ -> ());
                if draining t then shed_async t fd "draining"
                else if
                  Kgm_pool.Service.pending pool >= t.cfg.queue_capacity
                  || not (Kgm_pool.Service.submit pool fd)
                then shed_async t fd "overloaded"))
  done

(* Serving allocates short-lived strings and buffers on every request;
   with the stock 256k-word minor heap a busy domain triggers a minor
   collection every few dozen requests, and on OCaml 5 every minor
   collection is a stop-the-world synchronization of *all* domains —
   the cross-domain rendezvous, not the copying, is what shows up as
   multi-millisecond tail latency. A serving process wants a large
   minor arena: raise it, never shrinking a larger setting. On OCaml
   5.1 [Gc.set] resizes the calling domain's minor heap only: domains
   spawned later (the readers, the maintenance pool's) start with the
   default. *)
let serving_minor_heap = 4 * 1024 * 1024 (* words *)

let tune_runtime_for_serving () =
  let g = Gc.get () in
  if g.Gc.minor_heap_size < serving_minor_heap then
    Gc.set { g with Gc.minor_heap_size = serving_minor_heap }

let start t =
  if Atomic.exchange t.started true then
    invalid_arg "Kgm_server.start: already started";
  tune_runtime_for_serving ();
  (* a client that closes before its response is written must cost an
     EPIPE on its connection (handled by every write), not the process:
     SIGPIPE's default action would kill the server *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* a fresh generation before the first request: a crash before the
     first update recovers, and the log never continues one a recovery
     read (it may end in a torn record) *)
  with_lock t.writer_mu (fun () -> persist t);
  (try Unix.unlink t.cfg.sock with Unix.Unix_error _ -> ());
  let lfd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  (try
     Unix.bind lfd (ADDR_UNIX t.cfg.sock);
     Unix.listen lfd 64
   with e ->
     close_quietly lfd;
     raise e);
  t.listen_fd <- Some lfd;
  (* the reader pool: dedicated domains, because every request answers
     against an immutable epoch snapshot — reads share no locks, so
     domains give true parallelism where systhreads would serialize on
     the runtime lock *)
  let pool =
    Kgm_pool.Service.create ~domains:t.cfg.workers
      ~on_error:(fun _ -> Atomic.incr t.c_errors)
      (fun fd -> handle_conn t fd)
  in
  t.pool <- Some pool;
  t.shed_thread <- Some (Thread.create (fun () -> shed_loop t) ());
  t.acceptor_thread <-
    Some (Thread.create (fun () -> acceptor_loop t lfd pool) ());
  if Journal.enabled t.jr then
    Journal.emit t.jr "server.start"
      [ ("sock", J.Str t.cfg.sock);
        ("workers", J.Int t.cfg.workers);
        ("queue", J.Int t.cfg.queue_capacity);
        ("epoch", J.Int (Atomic.get t.epoch).ep_id) ]

let absorb_drain_fault t =
  try Faults.inject "drain"
  with Kgm_resilience.Fault _ -> Atomic.incr t.c_faults

let run_until_drained t =
  while not (Atomic.get t.drain_req) do
    Thread.delay 0.02
  done;
  if Journal.enabled t.jr then Journal.emit t.jr "server.drain.start" [];
  (* 1. stop admission: the acceptor notices the flag within one select
     tick; then unlink the socket so new clients fail fast *)
  absorb_drain_fault t;
  Atomic.set t.stop_accept true;
  (match t.acceptor_thread with Some th -> Thread.join th | None -> ());
  (match t.listen_fd with Some fd -> close_quietly fd | None -> ());
  (try Unix.unlink t.cfg.sock with Unix.Unix_error _ -> ());
  (* 2. cancel in-flight work (scans and debug sleeps poll the drain
     token; keep-alive loops close once their buffered pipeline is
     answered) and shed every connection never picked up by a reader *)
  absorb_drain_fault t;
  Token.cancel t.drain_tok;
  (match t.pool with
  | Some pool ->
      let doomed = Kgm_pool.Service.shutdown pool in
      List.iter (fun fd -> shed_async t fd "draining") doomed
  | None -> ());
  (* the shed thread flushes its backlog (including the fds above),
     then exits *)
  Atomic.set t.stop_shed true;
  with_lock t.shed_mu (fun () -> Condition.broadcast t.shed_cond);
  (match t.shed_thread with Some th -> Thread.join th | None -> ());
  (* 3. final base — absorbed on failure: drain always exits; no reader
     is left to run a maintenance pass, so the batch pool stops too *)
  absorb_drain_fault t;
  with_lock t.writer_mu (fun () ->
      Fun.protect
        ~finally:(fun () -> Kgm_pool.shutdown t.batch_pool)
        (fun () ->
          persist t;
          close_log t));
  let s = stats t in
  if Journal.enabled t.jr then
    Journal.emit t.jr "server.drain.done"
      [ ("requests", J.Int s.st_requests);
        ("conns", J.Int s.st_conns);
        ("shed", J.Int s.st_shed);
        ("errors", J.Int s.st_errors);
        ("updates", J.Int s.st_updates);
        ("faults_absorbed", J.Int s.st_faults) ];
  Atomic.set t.stopped true;
  s

(* ------------------------------------------------------------------ *)
(* Client                                                              *)

module Client = struct
  type conn = {
    fd : Unix.file_descr;
    inb : Inbuf.t;              (** response bytes read, not yet taken *)
    mutable alive : bool;       (** usable for another request *)
    mutable fd_closed : bool;
    send : Buffer.t;            (** request assembly, reused *)
  }

  let connect ?(io_timeout_s = 30.) sock =
    let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
    (try
       Unix.setsockopt_float fd SO_RCVTIMEO io_timeout_s;
       Unix.setsockopt_float fd SO_SNDTIMEO io_timeout_s;
       Unix.connect fd (ADDR_UNIX sock)
     with e ->
       close_quietly fd;
       raise e);
    { fd; inb = Inbuf.create (); alive = true; fd_closed = false;
      send = Buffer.create 512 }

  (* idempotent on purpose: a second [close] must never touch the fd
     number again — the kernel may have already handed it to another
     thread's socket, and closing that one destroys an unrelated live
     connection *)
  let close c =
    c.alive <- false;
    if not c.fd_closed then begin
      c.fd_closed <- true;
      close_quietly c.fd
    end

  let add_request buf ?deadline_s ?(body = "") ?(close_conn = false) ~meth
      ~path () =
    Buffer.add_string buf meth;
    Buffer.add_char buf ' ';
    Buffer.add_string buf path;
    Buffer.add_string buf " HTTP/1.1\r\nhost: kgm\r\n";
    if close_conn then Buffer.add_string buf "connection: close\r\n";
    (match deadline_s with
    | Some d ->
        Buffer.add_string buf (Printf.sprintf "x-kgm-deadline: %g\r\n" d)
    | None -> ());
    Buffer.add_string buf "content-length: ";
    Buffer.add_string buf (string_of_int (String.length body));
    Buffer.add_string buf "\r\n\r\n";
    Buffer.add_string buf body

  (* read one content-length framed response (never to EOF — the
     server keeps the socket open); bytes past the frame are stashed
     for the next call. [Failure] when the server closed or sent
     garbage. *)
  let read_response c =
    let ib = c.inb in
    let recv ~want =
      if Inbuf.fill ib c.fd ~want = 0 then begin
        c.alive <- false;
        failwith "Kgm_server.Client: connection closed by server"
      end
    in
    let rec read_head () =
      match Inbuf.find_head_end ib with
      | -1 ->
          recv ~want:4096;
          read_head ()
      | i -> i
    in
    let head_len = read_head () in
    let first_line, headers =
      match parse_head_lines (Inbuf.sub ib 0 head_len) with
      | Some p -> p
      | None -> failwith "Kgm_server.Client: malformed response head"
    in
    let status =
      match String.split_on_char ' ' first_line with
      | _ :: code :: _ -> (
          match int_of_string_opt code with Some c -> c | None -> 0)
      | _ -> 0
    in
    let clen =
      match List.assoc_opt "content-length" headers with
      | Some v -> (
          match int_of_string_opt (String.trim v) with Some n -> n | None -> 0)
      | None -> 0
    in
    let total = head_len + 4 + clen in
    while Inbuf.length ib < total do
      recv ~want:(max 4096 (total - Inbuf.length ib))
    done;
    let body = Inbuf.sub ib (head_len + 4) clen in
    Inbuf.consume ib total;
    (match List.assoc_opt "connection" headers with
    | Some v when String.lowercase_ascii (String.trim v) = "close" -> close c
    | _ -> ());
    (status, body)

  let request_on ?deadline_s ?(body = "") ?(close_conn = false) c ~meth ~path
      () =
    if not c.alive then failwith "Kgm_server.Client: connection closed";
    let b = c.send in
    Buffer.clear b;
    add_request b ?deadline_s ~body ~close_conn ~meth ~path ();
    write_all c.fd (Buffer.contents b);
    read_response c

  (* HTTP/1.1 pipelining: every request in one write, then the
     responses in order — one syscall round per batch instead of one
     per request *)
  let pipeline ?deadline_s c ~meth ~path bodies =
    if not c.alive then failwith "Kgm_server.Client: connection closed";
    let b = c.send in
    Buffer.clear b;
    List.iter
      (fun body -> add_request b ?deadline_s ~body ~meth ~path ())
      bodies;
    write_all c.fd (Buffer.contents b);
    List.map (fun _ -> read_response c) bodies

  (* the server answers 504 at the deadline, so the socket waits a
     grace second past it: with the IO bounded by the deadline itself,
     the read could time out just before the 504 arrived *)
  let request ?deadline_s ?(body = "") ~sock ~meth ~path () =
    let io =
      match deadline_s with Some d -> Float.max 0.05 d +. 1. | None -> 30.
    in
    let c = connect ~io_timeout_s:io sock in
    Fun.protect
      ~finally:(fun () -> close c)
      (fun () -> request_on ?deadline_s ~body ~close_conn:true c ~meth ~path ())

  let wait_ready ?(attempts = 100) ?(delay_s = 0.05) sock =
    let rec go n =
      if n <= 0 then false
      else
        match request ~deadline_s:1. ~sock ~meth:"GET" ~path:"/ready" () with
        | 200, _ -> true
        | _ ->
            Thread.delay delay_s;
            go (n - 1)
        | exception (Unix.Unix_error _ | Failure _) ->
            Thread.delay delay_s;
            go (n - 1)
    in
    go attempts
end
