(** Blocking client (see the interface). *)

module P = Protocol

type t = { fd : Unix.file_descr; rbuf : Buffer.t }

let sockaddr = function
  | P.Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | P.Tcp port ->
      (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))

let connect ?(retries = 50) addr =
  let domain, sa = sockaddr addr in
  let rec go n =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd sa with
    | () -> { fd; rbuf = Buffer.create 256 }
    | exception e ->
        (try Unix.close fd with _ -> ());
        if n <= 0 then raise e
        else begin
          Unix.sleepf 0.1;
          go (n - 1)
        end
  in
  go retries

let send_raw t s =
  let n = String.length s in
  let rec go off =
    if off < n then begin
      let w =
        try Unix.write_substring t.fd s off (n - off)
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      go (off + w)
    end
  in
  go 0

let send t cmd = send_raw t (P.command_to_string cmd ^ "\n")

(* Read until one full line is buffered; the reply-side length limit
   protects the client from a runaway server the same way the server
   protects itself from a hostile client. *)
let recv_line t =
  let chunk = Bytes.create 8192 in
  let rec take () =
    let data = Buffer.contents t.rbuf in
    match String.index_opt data '\n' with
    | Some nl ->
        Buffer.clear t.rbuf;
        Buffer.add_substring t.rbuf data (nl + 1)
          (String.length data - nl - 1);
        String.sub data 0 nl
    | None ->
        if String.length data > P.max_reply_line then
          raise (P.Invalid "reply line exceeds the client limit");
        let n =
          try Unix.read t.fd chunk 0 (Bytes.length chunk) with
          | Unix.Unix_error (Unix.EINTR, _, _) -> max_int
          | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
              (* a reset peer is just a closed connection to the caller *)
              0
        in
        if n = max_int then take ()
        else if n = 0 then raise End_of_file
        else begin
          Buffer.add_subbytes t.rbuf chunk 0 n;
          take ()
        end
  in
  take ()

let recv t = P.reply_of_string (recv_line t)

let optimize ?(on_progress = fun _ -> ()) t (req : P.request) =
  send t (P.Optimize req);
  let rec pump () =
    match recv t with
    | P.Progress p when p.p_id = req.id ->
        on_progress p;
        pump ()
    | P.Result o as r when o.o_id = req.id -> r
    | P.Error { e_id = Some id; _ } as r when id = req.id -> r
    | P.Error { e_id = None; _ } as r -> r
    | _ -> pump ()
  in
  pump ()

let frontier t (f : P.frontier_request) =
  send t (P.Frontier f);
  let rec pump () =
    match recv t with
    | P.Frontier_reply a as r when a.fr_id = f.f_id -> r
    | P.Error { e_id = Some id; _ } as r when id = f.f_id -> r
    | P.Error { e_id = None; _ } as r -> r
    | _ -> pump ()
  in
  pump ()

let health t =
  send t P.Health;
  let rec pump () =
    match recv t with P.Health_reply h -> h | _ -> pump ()
  in
  pump ()

let metrics_text t =
  send t P.Metrics;
  let rec pump () =
    match recv t with P.Metrics_reply text -> text | _ -> pump ()
  in
  pump ()

let close t = try Unix.close t.fd with _ -> ()
