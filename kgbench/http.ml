(* A minimal HTTP/1.1 client over a Unix-domain socket for the load
   generators: persistent connections, content-length framing and
   pipelined windows, like Kgm_server.Client, but it also returns the
   answer's epoch (the [x-kgm-epoch] header, which the epoch check
   needs). One connection per thread. *)

exception Closed

type conn = { fd : Unix.file_descr; chunk : Bytes.t; acc : Buffer.t }

type response = {
  status : int;
  epoch : int;  (** [x-kgm-epoch], or [-1] when absent *)
  body : string;
  keep : bool;  (** false when the server closes the connection *)
}

(* a stalled server makes a request raise (and count as failed) instead
   of hanging the load thread, as in Kgm_server.Client *)
let timeout_s = 30.

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s;
     Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  { fd; chunk = Bytes.create 65536; acc = Buffer.create 4096 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let encode ~meth ~path body =
  Printf.sprintf "%s %s HTTP/1.1\r\nhost: kgbench\r\ncontent-length: %d\r\n\r\n%s"
    meth path (String.length body) body

let rec write_all fd s off len =
  if len > 0 then
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)

let fill c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then raise Closed;
  Buffer.add_subbytes c.acc c.chunk 0 n

let find_head_end s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if
      s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some i
    else go (i + 1)
  in
  go 0

let read_response c =
  let rec head () =
    let s = Buffer.contents c.acc in
    match find_head_end s with
    | Some i -> (s, i)
    | None ->
        fill c;
        head ()
  in
  let s, i = head () in
  let status = ref 0 and clen = ref 0 and epoch = ref (-1) and keep = ref true in
  List.iteri
    (fun k line ->
      let line = String.trim line in
      if k = 0 then
        match String.split_on_char ' ' line with
        | _ :: code :: _ -> status := int_of_string code
        | _ -> raise Closed
      else
        match String.index_opt line ':' with
        | Some j -> (
            let key = String.lowercase_ascii (String.sub line 0 j) in
            let v = String.trim (String.sub line (j + 1) (String.length line - j - 1)) in
            match key with
            | "content-length" -> clen := int_of_string v
            | "x-kgm-epoch" -> epoch := int_of_string v
            | "connection" -> keep := String.lowercase_ascii v <> "close"
            | _ -> ())
        | None -> ())
    (String.split_on_char '\n' (String.sub s 0 i));
  let total = i + 4 + !clen in
  let rec whole s =
    if String.length s >= total then s
    else begin
      fill c;
      whole (Buffer.contents c.acc)
    end
  in
  let s = whole s in
  Buffer.clear c.acc;
  Buffer.add_substring c.acc s total (String.length s - total);
  { status = !status; epoch = !epoch; body = String.sub s (i + 4) !clen;
    keep = !keep }

(* [raw] is an already-encoded request ({!encode}) *)
let send c raw =
  write_all c.fd raw 0 (String.length raw);
  read_response c

(* a pipelined window: every request written at once, then the answers
   read in order *)
let send_window c raws =
  let s = String.concat "" (Array.to_list raws) in
  write_all c.fd s 0 (String.length s);
  Array.map (fun _ -> read_response c) raws

let request c ~meth ~path body = send c (encode ~meth ~path body)
