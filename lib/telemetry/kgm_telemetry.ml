module Clock = struct
  let now_ns () = Monotonic_clock.now ()
  let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9
end

module Histogram = struct
  (* bucket i counts observations in [2^(i-1), 2^i) microseconds; bucket
     0 is the underflow (<= 1us), the last bucket the overflow (~ >18min) *)
  let n_buckets = 42

  type t = {
    counts : int array;
    mutable count : int;
    mutable sum : float;
    mutable min_v : float;
    mutable max_v : float;
  }

  let create () =
    { counts = Array.make n_buckets 0;
      count = 0;
      sum = 0.;
      min_v = infinity;
      max_v = neg_infinity }

  let bucket_of seconds =
    let us = seconds *. 1e6 in
    if us <= 1. then 0
    else
      let i = 1 + int_of_float (Float.log2 us) in
      if i >= n_buckets then n_buckets - 1 else i

  (* upper bound of bucket i, in seconds *)
  let bucket_bound i = if i = 0 then 1e-6 else Float.pow 2. (float_of_int i) *. 1e-6

  let observe h seconds =
    let v = if seconds < 0. then 0. else seconds in
    let i = bucket_of v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    if v < h.min_v then h.min_v <- v;
    if v > h.max_v then h.max_v <- v

  type snapshot = {
    count : int;
    sum : float;
    min : float;
    max : float;
    buckets : (float * int) list;
  }

  let snapshot h =
    let buckets = ref [] in
    for i = n_buckets - 1 downto 0 do
      if h.counts.(i) > 0 then
        buckets := (bucket_bound i, h.counts.(i)) :: !buckets
    done;
    { count = h.count;
      sum = h.sum;
      min = (if h.count = 0 then 0. else h.min_v);
      max = (if h.count = 0 then 0. else h.max_v);
      buckets = !buckets }

  let mean s = if s.count = 0 then 0. else s.sum /. float_of_int s.count

  let quantile s q =
    if s.count = 0 then 0.
    else begin
      let target =
        int_of_float (Float.round (q *. float_of_int s.count)) |> max 1
      in
      let rec go seen = function
        | [] -> s.max
        | (bound, c) :: rest ->
            if seen + c >= target then bound else go (seen + c) rest
      in
      go 0 s.buckets
    end
end

type span = {
  sp_id : int;
  sp_parent : int option;
  sp_depth : int;
  sp_name : string;
  sp_cat : string;
  sp_start : float;
  sp_dur : float;
  sp_args : (string * string) list;
}

(* one span name's closed spans: how many, their total seconds, and the
   earliest (start, id) among them — the exporters' order *)
type span_total = {
  mutable tot_n : int;
  mutable tot_s : float;
  mutable first_start : float;
  mutable first_id : int;
}

(* span records a collector keeps for {!spans} and the trace: the last
   this many to close. A long-lived collector (a server's, which every
   maintained batch's engine pass records into) would otherwise grow
   without bound; the per-name totals stay exact. *)
let max_spans = 1 lsl 16

type t = {
  on : bool;
  epoch : float;
  mutable next_id : int;
  mutable stack : int list;             (* open span ids, innermost first *)
  mutable ring : span array;            (* closed span [i] at [i mod max_spans] *)
  mutable closed : int;                 (* spans closed so far *)
  totals : (string, span_total) Hashtbl.t;
  ctrs : (string, int ref) Hashtbl.t;
  hists : (string, Histogram.t) Hashtbl.t;
  gauge_reg : (string, unit -> int) Hashtbl.t;
}

let make on =
  { on;
    epoch = Clock.now ();
    next_id = 0;
    stack = [];
    ring = [||];
    closed = 0;
    totals = Hashtbl.create 16;
    ctrs = Hashtbl.create 16;
    hists = Hashtbl.create 16;
    gauge_reg = Hashtbl.create 8 }

let create () = make true
let null = make false
let enabled t = t.on

let reset t =
  t.next_id <- 0;
  t.stack <- [];
  t.ring <- [||];
  t.closed <- 0;
  Hashtbl.reset t.totals;
  Hashtbl.reset t.ctrs;
  Hashtbl.reset t.hists;
  Hashtbl.reset t.gauge_reg

let push t =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let parent = match t.stack with [] -> None | p :: _ -> Some p in
  let depth = List.length t.stack in
  t.stack <- id :: t.stack;
  (id, parent, depth)

let close_span t sp =
  (match Hashtbl.find_opt t.totals sp.sp_name with
   | Some a ->
       a.tot_n <- a.tot_n + 1;
       a.tot_s <- a.tot_s +. sp.sp_dur;
       if
         sp.sp_start < a.first_start
         || (sp.sp_start = a.first_start && sp.sp_id < a.first_id)
       then begin
         a.first_start <- sp.sp_start;
         a.first_id <- sp.sp_id
       end
   | None ->
       Hashtbl.add t.totals sp.sp_name
         { tot_n = 1; tot_s = sp.sp_dur; first_start = sp.sp_start;
           first_id = sp.sp_id });
  let cap = Array.length t.ring in
  if t.closed = cap && cap < max_spans then begin
    let ring = Array.make (min max_spans (max 64 (2 * cap))) sp in
    Array.blit t.ring 0 ring 0 cap;
    t.ring <- ring
  end;
  t.ring.(t.closed land (max_spans - 1)) <- sp;
  t.closed <- t.closed + 1

let with_span t ?(cat = "span") ?(args = []) name f =
  if not t.on then f ()
  else begin
    let id, parent, depth = push t in
    let t0 = Clock.now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now () in
        (match t.stack with
         | x :: rest when x = id -> t.stack <- rest
         | _ -> ());
        close_span t
          { sp_id = id; sp_parent = parent; sp_depth = depth;
            sp_name = name; sp_cat = cat;
            sp_start = t0 -. t.epoch; sp_dur = t1 -. t0; sp_args = args })
      f
  end

let record_span t ?(cat = "span") ?(args = []) name ~start ~stop =
  if t.on then begin
    let id = t.next_id in
    t.next_id <- t.next_id + 1;
    let parent = match t.stack with [] -> None | p :: _ -> Some p in
    let depth = List.length t.stack in
    close_span t
      { sp_id = id; sp_parent = parent; sp_depth = depth;
        sp_name = name; sp_cat = cat;
        sp_start = start -. t.epoch;
        sp_dur = Float.max 0. (stop -. start);
        sp_args = args }
  end

let count t ?(by = 1) name =
  if t.on then
    match Hashtbl.find_opt t.ctrs name with
    | Some r -> r := !r + by
    | None -> Hashtbl.add t.ctrs name (ref by)

let observe t name seconds =
  if t.on then
    let h =
      match Hashtbl.find_opt t.hists name with
      | Some h -> h
      | None ->
          let h = Histogram.create () in
          Hashtbl.add t.hists name h;
          h
    in
    Histogram.observe h seconds

let spans t =
  List.sort
    (fun a b ->
      match compare a.sp_start b.sp_start with
      | 0 -> compare a.sp_id b.sp_id
      | c -> c)
    (Array.to_list (Array.sub t.ring 0 (min t.closed max_spans)))

let spans_dropped t = t.closed - min t.closed max_spans

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.ctrs []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let histograms t =
  Hashtbl.fold (fun k h acc -> (k, Histogram.snapshot h) :: acc) t.hists []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Gauges are callback-registered and sampled at export time: the
   owner (e.g. the serving loop's queue depth, current epoch) keeps
   its state where it naturally lives — typically an [Atomic.t] — and
   the exporter reads it instead of the owner pushing every change. *)
let gauge t name sample = if t.on then Hashtbl.replace t.gauge_reg name sample

let gauges t =
  Hashtbl.fold
    (fun k sample acc ->
      match sample () with
      | v -> (k, v) :: acc
      | exception _ -> acc)
    t.gauge_reg []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

(* spans aggregated by name, in the order of each name's first span
   to start: (name, count, total seconds). Kept as spans close, so an
   export costs the names, not the spans *)
let span_totals t =
  Hashtbl.fold (fun name a acc -> (name, a) :: acc) t.totals []
  |> List.sort (fun (_, a) (_, b) ->
         match compare a.first_start b.first_start with
         | 0 -> compare a.first_id b.first_id
         | c -> c)
  |> List.map (fun (name, a) -> (name, a.tot_n, a.tot_s))

let summary t =
  let buf = Buffer.create 1024 in
  let say fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  say "== telemetry summary ==\n";
  (match span_totals t with
   | [] -> ()
   | totals ->
       say "spans (aggregated by name):\n";
       say "  %-40s %8s %12s %12s\n" "name" "count" "total s" "mean s";
       List.iter
         (fun (name, n, tot) ->
           say "  %-40s %8d %12.6f %12.6f\n" name n tot
             (tot /. float_of_int n))
         totals);
  (match counters t with
   | [] -> ()
   | cs ->
       say "counters:\n";
       List.iter (fun (k, v) -> say "  %-48s %12d\n" k v) cs);
  (match histograms t with
   | [] -> ()
   | hs ->
       say "histograms (seconds):\n";
       say "  %-36s %8s %10s %10s %10s %10s\n" "name" "count" "mean" "p50"
         "p90" "max";
       List.iter
         (fun (k, s) ->
           say "  %-36s %8d %10.6f %10.6f %10.6f %10.6f\n" k s.Histogram.count
             (Histogram.mean s)
             (Histogram.quantile s 0.5)
             (Histogram.quantile s 0.9)
             s.Histogram.max)
         hs);
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let sanitize_metric_name s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    s

let label_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prometheus ?(namespace = "kgm") t =
  let ns = sanitize_metric_name namespace in
  let buf = Buffer.create 4096 in
  let say fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* counters: monotone since collector creation *)
  List.iter
    (fun (name, v) ->
      let m = Printf.sprintf "%s_%s_total" ns (sanitize_metric_name name) in
      say "# TYPE %s counter\n%s %d\n" m m v)
    (counters t);
  (* gauges: instantaneous values sampled at export *)
  List.iter
    (fun (name, v) ->
      let m = Printf.sprintf "%s_%s" ns (sanitize_metric_name name) in
      say "# TYPE %s gauge\n%s %d\n" m m v)
    (gauges t);
  (* histograms: cumulative le buckets over the non-empty log2 bounds *)
  List.iter
    (fun (name, (s : Histogram.snapshot)) ->
      let m = Printf.sprintf "%s_%s_seconds" ns (sanitize_metric_name name) in
      say "# TYPE %s histogram\n" m;
      let cum = ref 0 in
      List.iter
        (fun (bound, c) ->
          cum := !cum + c;
          say "%s_bucket{le=\"%.9g\"} %d\n" m bound !cum)
        s.Histogram.buckets;
      say "%s_bucket{le=\"+Inf\"} %d\n" m s.Histogram.count;
      say "%s_sum %.9f\n" m s.Histogram.sum;
      say "%s_count %d\n" m s.Histogram.count)
    (histograms t);
  (* spans, aggregated by name: a pair of counters per span name *)
  (match span_totals t with
   | [] -> ()
   | totals ->
       say "# TYPE %s_span_total counter\n" ns;
       List.iter
         (fun (name, n, _) ->
           say "%s_span_total{span=\"%s\"} %d\n" ns (label_escape name) n)
         totals;
       say "# TYPE %s_span_seconds_total counter\n" ns;
       List.iter
         (fun (name, _, tot) ->
           say "%s_span_seconds_total{span=\"%s\"} %.9f\n" ns
             (label_escape name) tot)
         totals);
  Buffer.contents buf

let write_prometheus ?namespace file t =
  (* atomic swap: a scraper (or a crash) never sees a torn snapshot *)
  let tmp = file ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (prometheus ?namespace t);
  close_out oc;
  Sys.rename tmp file

(* ------------------------------------------------------------------ *)
(* Minimal JSON values: what the journal needs to write and read back.
   No external dependency; integers are kept distinct from floats so
   counters round-trip exactly. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let float_repr f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else
      let s = Printf.sprintf "%.12g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

  let rec print buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        if Float.is_nan f || Float.abs f = Float.infinity then
          Buffer.add_string buf "null"
        else Buffer.add_string buf (float_repr f)
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (json_escape s);
        Buffer.add_char buf '"'
    | Arr l ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            print buf v)
          l;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Buffer.add_string buf (json_escape k);
            Buffer.add_string buf "\":";
            print buf v)
          kvs;
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    print buf v;
    Buffer.contents buf

  exception Parse_error of string

  (* recursive-descent parser over a string; positions are byte offsets *)
  type cursor = { s : string; mutable i : int }

  let error c msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg c.i))

  let peek c = if c.i < String.length c.s then Some c.s.[c.i] else None

  let skip_ws c =
    while
      c.i < String.length c.s
      && (match c.s.[c.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      c.i <- c.i + 1
    done

  let expect c ch =
    match peek c with
    | Some x when x = ch -> c.i <- c.i + 1
    | _ -> error c (Printf.sprintf "expected '%c'" ch)

  let lit c word v =
    if
      c.i + String.length word <= String.length c.s
      && String.sub c.s c.i (String.length word) = word
    then begin
      c.i <- c.i + String.length word;
      v
    end
    else error c (Printf.sprintf "expected %s" word)

  let utf8_of_code buf u =
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end

  let parse_hex4 c =
    if c.i + 4 > String.length c.s then error c "truncated \\u escape";
    let h = String.sub c.s c.i 4 in
    c.i <- c.i + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some v -> v
    | None -> error c "bad \\u escape"

  let parse_string c =
    expect c '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if c.i >= String.length c.s then error c "unterminated string";
      let ch = c.s.[c.i] in
      c.i <- c.i + 1;
      if ch = '"' then Buffer.contents buf
      else if ch = '\\' then begin
        (if c.i >= String.length c.s then error c "unterminated escape";
         let e = c.s.[c.i] in
         c.i <- c.i + 1;
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
             let u = parse_hex4 c in
             (* surrogate pair *)
             if u >= 0xD800 && u <= 0xDBFF then begin
               if
                 c.i + 1 < String.length c.s
                 && c.s.[c.i] = '\\'
                 && c.s.[c.i + 1] = 'u'
               then begin
                 c.i <- c.i + 2;
                 let lo = parse_hex4 c in
                 utf8_of_code buf
                   (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
               end
               else utf8_of_code buf 0xFFFD
             end
             else utf8_of_code buf u
         | _ -> error c "bad escape");
        go ()
      end
      else begin
        Buffer.add_char buf ch;
        go ()
      end
    in
    go ()

  let parse_number c =
    let start = c.i in
    let is_num ch =
      match ch with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while c.i < String.length c.s && is_num c.s.[c.i] do
      c.i <- c.i + 1
    done;
    let tok = String.sub c.s start (c.i - start) in
    let has ch = String.contains tok ch in
    if (not (has '.')) && (not (has 'e')) && not (has 'E') then
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> error c "bad number")
    else
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> error c "bad number"

  let rec parse_value c =
    skip_ws c;
    match peek c with
    | None -> error c "unexpected end of input"
    | Some '"' -> Str (parse_string c)
    | Some '{' ->
        expect c '{';
        skip_ws c;
        if peek c = Some '}' then begin
          expect c '}';
          Obj []
        end
        else begin
          let kvs = ref [] in
          let rec members () =
            skip_ws c;
            let k = parse_string c in
            skip_ws c;
            expect c ':';
            let v = parse_value c in
            kvs := (k, v) :: !kvs;
            skip_ws c;
            match peek c with
            | Some ',' ->
                expect c ',';
                members ()
            | Some '}' -> expect c '}'
            | _ -> error c "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !kvs)
        end
    | Some '[' ->
        expect c '[';
        skip_ws c;
        if peek c = Some ']' then begin
          expect c ']';
          Arr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value c in
            items := v :: !items;
            skip_ws c;
            match peek c with
            | Some ',' ->
                expect c ',';
                elements ()
            | Some ']' -> expect c ']'
            | _ -> error c "expected ',' or ']'"
          in
          elements ();
          Arr (List.rev !items)
        end
    | Some 't' -> lit c "true" (Bool true)
    | Some 'f' -> lit c "false" (Bool false)
    | Some 'n' -> lit c "null" Null
    | Some _ -> parse_number c

  let of_string s =
    let c = { s; i = 0 } in
    match parse_value c with
    | v ->
        skip_ws c;
        if c.i <> String.length s then Error "trailing garbage"
        else Ok v
    | exception Parse_error msg -> Error msg

  let member k = function
    | Obj kvs -> List.assoc_opt k kvs
    | _ -> None

  let to_int = function Int i -> Some i | _ -> None
  let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
  let to_str = function Str s -> Some s | _ -> None
end

(* Chrome trace-event format: one complete ("X") event per span kept, in
   microseconds, after a process-name metadata event; counters ride in
   [otherData], and the spans no longer kept in [spans_dropped] (the
   format reads other top-level keys as trace metadata) *)
let chrome_trace ?(process_name = "kgmodel") t =
  let event s =
    Json.Obj
      ([ ("ph", Json.Str "X"); ("pid", Json.Int 1); ("tid", Json.Int 1);
         ("name", Json.Str s.sp_name); ("cat", Json.Str s.sp_cat);
         ("ts", Json.Float (s.sp_start *. 1e6));
         ("dur", Json.Float (s.sp_dur *. 1e6)) ]
      @
      match s.sp_args with
      | [] -> []
      | args -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args)) ])
  in
  let meta =
    Json.Obj
      [ ("ph", Json.Str "M"); ("pid", Json.Int 1); ("tid", Json.Int 1);
        ("name", Json.Str "process_name");
        ("args", Json.Obj [ ("name", Json.Str process_name) ]) ]
  in
  Json.to_string
    (Json.Obj
       [ ("traceEvents", Json.Arr (meta :: List.map event (spans t)));
         ("otherData",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)));
         ("spans_dropped", Json.Int (spans_dropped t)) ])
  ^ "\n"

let write_chrome_trace ?process_name file t =
  let oc = open_out file in
  output_string oc (chrome_trace ?process_name t);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Flight recorder: a JSONL journal of chase events. Each line is one
   JSON object {"seq":..,"t":..,"type":..,<payload>}; the first line is
   a header event carrying the schema name and version. *)

module Journal = struct
  let schema = "kgm-chase-journal"
  let version = 1

  type event = {
    ev_seq : int;
    ev_t : float;  (* seconds since the journal was opened *)
    ev_type : string;
    ev_fields : (string * Json.t) list;
  }

  type t = {
    on : bool;
    epoch : float;
    lock : Mutex.t;
    mutable seq : int;
    mutable oc : out_channel option;
    mutable taps : (event -> unit) list;
  }

  let null =
    { on = false;
      epoch = 0.;
      lock = Mutex.create ();
      seq = 0;
      oc = None;
      taps = [] }

  let enabled j = j.on

  let json_of_event e =
    Json.Obj
      (("seq", Json.Int e.ev_seq)
      :: ("t", Json.Float e.ev_t)
      :: ("type", Json.Str e.ev_type)
      :: e.ev_fields)

  (* Workers on other domains report retries/faults, so emission is
     serialized. Taps run under the lock to keep their view ordered;
     a tap must not emit. *)
  let emit j ev_type fields =
    if j.on then begin
      Mutex.lock j.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock j.lock)
        (fun () ->
          let e =
            { ev_seq = j.seq;
              ev_t = Clock.now () -. j.epoch;
              ev_type;
              ev_fields = fields }
          in
          j.seq <- j.seq + 1;
          (match j.oc with
           | Some oc ->
               output_string oc (Json.to_string (json_of_event e));
               output_char oc '\n'
           | None -> ());
          List.iter (fun f -> f e) j.taps)
    end

  let create ?path () =
    let oc =
      match path with
      | None -> None
      | Some p -> Some (open_out p)
    in
    let j =
      { on = true;
        epoch = Clock.now ();
        lock = Mutex.create ();
        seq = 0;
        oc;
        taps = [] }
    in
    emit j "journal.open"
      [ ("schema", Json.Str schema); ("version", Json.Int version) ];
    j

  let tap j f = if j.on then j.taps <- j.taps @ [ f ]

  let close j =
    Mutex.lock j.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock j.lock)
      (fun () ->
        match j.oc with
        | Some oc ->
            j.oc <- None;
            close_out oc
        | None -> ())

  (* ---------------- reading a recording back ---------------- *)

  let event_of_json v =
    match v with
    | Json.Obj kvs ->
        let seq =
          Option.bind (List.assoc_opt "seq" kvs) Json.to_int
        and t = Option.bind (List.assoc_opt "t" kvs) Json.to_float
        and ty = Option.bind (List.assoc_opt "type" kvs) Json.to_str in
        (match (seq, t, ty) with
         | Some seq, Some t, Some ty ->
             let fields =
               List.filter
                 (fun (k, _) -> k <> "seq" && k <> "t" && k <> "type")
                 kvs
             in
             Ok { ev_seq = seq; ev_t = t; ev_type = ty; ev_fields = fields }
         | _ -> Error "event missing seq/t/type")
    | _ -> Error "event line is not a JSON object"

  let parse_line line =
    match Json.of_string line with
    | Error e -> Error e
    | Ok v -> event_of_json v

  (* Validates the header line: schema name and a version we know how
     to read. Returns the events including the header event. *)
  let read_file path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let events = ref [] in
        let lineno = ref 0 in
        let bad = ref None in
        (try
           while !bad = None do
             let line = input_line ic in
             incr lineno;
             if String.trim line <> "" then
               match parse_line line with
               | Ok e -> events := e :: !events
               | Error msg ->
                   bad := Some (Printf.sprintf "%s:%d: %s" path !lineno msg)
           done
         with End_of_file -> ());
        match !bad with
        | Some msg -> Error msg
        | None ->
        match List.rev !events with
        | [] -> Error "empty journal"
        | hd :: _ as all ->
            if hd.ev_type <> "journal.open" then
              Error "missing journal.open header"
            else if
              Option.bind (List.assoc_opt "schema" hd.ev_fields) Json.to_str
              <> Some schema
            then Error "unknown journal schema"
            else
              let v =
                Option.bind
                  (List.assoc_opt "version" hd.ev_fields)
                  Json.to_int
              in
              (match v with
               | Some v when v = version -> Ok all
               | Some v ->
                   Error
                     (Printf.sprintf "unsupported journal version %d (want %d)"
                        v version)
               | None -> Error "header missing version"))

  let field e k = List.assoc_opt k e.ev_fields
  let int_field e k = Option.bind (field e k) Json.to_int
  let str_field e k = Option.bind (field e k) Json.to_str

  let filter ?ev_type ?since ?until events =
    List.filter
      (fun e ->
        (match ev_type with
         | Some ty -> e.ev_type = ty
         | None -> true)
        && (match since with Some s -> e.ev_t >= s | None -> true)
        && match until with Some u -> e.ev_t <= u | None -> true)
      events

  let summarize events =
    let buf = Buffer.create 1024 in
    let say fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let n = List.length events in
    let duration =
      match (events, List.rev events) with
      | first :: _, last :: _ -> last.ev_t -. first.ev_t
      | _ -> 0.
    in
    say "== journal summary ==\n";
    say "events   %d\n" n;
    say "duration %.3fs\n" duration;
    (* per-type counts, in first-seen order *)
    let counts : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun e ->
        match Hashtbl.find_opt counts e.ev_type with
        | Some r -> incr r
        | None ->
            Hashtbl.add counts e.ev_type (ref 1);
            order := e.ev_type :: !order)
      events;
    say "by type:\n";
    List.iter
      (fun ty -> say "  %-28s %8d\n" ty !(Hashtbl.find counts ty))
      (List.rev !order);
    (* round deltas *)
    let deltas =
      List.filter_map
        (fun e ->
          if e.ev_type = "round.end" then int_field e "delta" else None)
        events
    in
    (match deltas with
     | [] -> ()
     | ds ->
         let mn = List.fold_left min max_int ds
         and mx = List.fold_left max 0 ds
         and sum = List.fold_left ( + ) 0 ds in
         say "rounds: %d  delta min/mean/max: %d / %.1f / %d\n"
           (List.length ds) mn
           (float_of_int sum /. float_of_int (List.length ds))
           mx);
    (* top rules by facts fired *)
    let fired : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun e ->
        if e.ev_type = "rule.batch" then
          match (str_field e "rule", int_field e "derived") with
          | Some r, Some d -> (
              match Hashtbl.find_opt fired r with
              | Some acc -> acc := !acc + d
              | None -> Hashtbl.add fired r (ref d))
          | _ -> ())
      events;
    let rules =
      Hashtbl.fold (fun k v acc -> (k, !v) :: acc) fired []
      |> List.sort (fun (a, va) (b, vb) ->
             match compare vb va with 0 -> String.compare a b | c -> c)
    in
    (match rules with
     | [] -> ()
     | rs ->
         say "top rules by facts derived:\n";
         List.iteri
           (fun i (r, d) -> if i < 10 then say "  %-48s %8d\n" r d)
           rs);
    Buffer.contents buf
end
