(* WASI snapshot-preview1: the complete 45-function system interface.

   Each function has its wire signature (pointers into guest linear
   memory, errno return) and is exposed as a host-function import under
   the module name "wasi_snapshot_preview1". The host behaviour is
   pluggable through [providers] (clocks, randomness, output sinks, a
   per-call hook used by TWINE to charge enclave-boundary costs) and
   through the preopened {!Vfs.dir}s (capability sandbox). *)

open Twine_wasm
open Twine_wasm.Values

exception Proc_exit of int

type providers = {
  clock_realtime : unit -> int64;  (* ns since epoch *)
  clock_monotonic : unit -> int64;  (* ns, guaranteed non-decreasing *)
  random : int -> string;
  stdout : string -> unit;
  stderr : string -> unit;
  on_call : string -> unit;
}

let default_providers =
  {
    clock_realtime = (fun () -> Int64.of_float (Unix.gettimeofday () *. 1e9));
    clock_monotonic =
      (let last = ref 0L in
       fun () ->
         let now = Int64.of_float (Unix.gettimeofday () *. 1e9) in
         (* monotonic guard, as TWINE's trusted time layer enforces *)
         if Int64.compare now !last > 0 then last := now;
         !last);
    random =
      (fun n -> String.init n (fun _ -> Char.chr (Random.int 256)));
    stdout = print_string;
    stderr = prerr_string;
    on_call = (fun _ -> ());
  }

type file_entry = { file : Vfs.file; mutable rights : int64; mutable flags : int }
type dir_entry = { dir : Vfs.dir; preopen_name : string }

type fd_entry =
  | Fd_stdin
  | Fd_stdout
  | Fd_stderr
  | Fd_dir of dir_entry
  | Fd_file of file_entry

type t = {
  args : string list;
  env : (string * string) list;
  providers : providers;
  strict : bool;  (* disallow operations outside trusted implementations *)
  obs : Twine_obs.Obs.t option;  (* hostcall telemetry, when attached *)
  fds : (int, fd_entry) Hashtbl.t;
  mutable next_fd : int;
  mutable memory : Memory.t option;
  mutable exit_code : int option;
}

(* Rights bits (subset of the preview1 set that we enforce). *)
let right_fd_read = 0x2L
let right_fd_seek = 0x4L
let right_fd_write = 0x40L
let all_rights = 0x1fffffffL

let create ?(args = [ "wasm-app" ]) ?(env = []) ?(preopens = []) ?(strict = false)
    ?(providers = default_providers) ?obs () =
  let t =
    {
      args;
      env;
      providers;
      strict;
      obs;
      fds = Hashtbl.create 16;
      next_fd = 3;
      memory = None;
      exit_code = None;
    }
  in
  Hashtbl.replace t.fds 0 Fd_stdin;
  Hashtbl.replace t.fds 1 Fd_stdout;
  Hashtbl.replace t.fds 2 Fd_stderr;
  List.iter
    (fun (name, dir) ->
      Hashtbl.replace t.fds t.next_fd (Fd_dir { dir; preopen_name = name });
      t.next_fd <- t.next_fd + 1)
    preopens;
  t

let bind_memory t inst =
  match Instance.export_memory inst "memory" with
  | Some m -> t.memory <- Some m
  | None -> (
      (* fall back to the instance's sole memory if unexported *)
      match inst.Instance.memory with
      | Some m -> t.memory <- Some m
      | None -> invalid_arg "Wasi: module has no linear memory")

let memory t =
  match t.memory with
  | Some m -> m
  | None -> invalid_arg "Wasi: memory not bound (call bind_memory after instantiate)"

let exit_code t = t.exit_code

(* --- guest memory helpers --- *)

let store_u32 m addr v = Memory.store32 m addr (Int32.of_int v)
let store_u64 m addr (v : int64) = Memory.store64 m addr v
let load_u32 m addr = Int32.to_int (Memory.load32 m addr) land 0xffffffff

(* --- argument plumbing --- *)

let i32 v = I32 (Int32.of_int v)
let errno e = [ i32 e ]
let ok = errno Errno.success

let arg_i32 = function I32 v -> Int32.to_int v | _ -> trap "wasi: expected i32"
let arg_i64 = function I64 v -> v | _ -> trap "wasi: expected i64"

let find_fd t fd = Hashtbl.find_opt t.fds fd

let with_file t fd need f =
  match find_fd t fd with
  | Some (Fd_file ff) ->
      if Int64.logand ff.rights need <> need then errno Errno.enotcapable else f ff
  | Some _ -> errno Errno.ebadf
  | None -> errno Errno.ebadf

let with_dir t fd f =
  match find_fd t fd with
  | Some (Fd_dir d) -> f d
  | Some _ -> errno Errno.enotdir
  | None -> errno Errno.ebadf

(* --- iovec handling --- *)

let read_iovs m iovs_ptr iovs_len =
  List.init iovs_len (fun i ->
      let base = iovs_ptr + (8 * i) in
      (load_u32 m base, load_u32 m (base + 4)))

(* --- the functions --- *)

let args_like_sizes m list ~count_ptr ~size_ptr =
  store_u32 m count_ptr (List.length list);
  store_u32 m size_ptr (List.fold_left (fun a s -> a + String.length s + 1) 0 list);
  ok

let args_like_get m list ~ptrs_ptr ~buf_ptr =
  let p = ref ptrs_ptr and b = ref buf_ptr in
  List.iter
    (fun s ->
      store_u32 m !p !b;
      Memory.store_bytes m !b (s ^ "\000");
      p := !p + 4;
      b := !b + String.length s + 1)
    list;
  ok

let filetype_byte = function
  | Vfs.Regular -> 4
  | Vfs.Directory -> 3
  | Vfs.Char_device -> 2
  | Vfs.Unknown -> 0

let write_filestat m buf (st : Vfs.filestat) =
  store_u64 m buf 0L;  (* dev *)
  store_u64 m (buf + 8) 0L;  (* ino *)
  Memory.store8 m (buf + 16) (Int32.of_int (filetype_byte st.st_filetype));
  store_u64 m (buf + 24) 1L;  (* nlink *)
  store_u64 m (buf + 32) (Int64.of_int st.st_size);
  store_u64 m (buf + 40) 0L;  (* atim *)
  store_u64 m (buf + 48) 0L;  (* mtim *)
  store_u64 m (buf + 56) 0L  (* ctim *)

let clock_time t id =
  match id with
  | 0 -> Some (t.providers.clock_realtime ())
  | 1 | 2 | 3 -> Some (t.providers.clock_monotonic ())
  | _ -> None

let do_read ff m iovs_ptr iovs_len nread_ptr ~pread ~offset =
  let iovs = read_iovs m iovs_ptr iovs_len in
  let total = ref 0 in
  let err = ref None in
  let pos = ref offset in
  (* WASI reads are vectored; IPFS-style backends are not, so we iterate
     (paper §IV-E does exactly this for fd_read) *)
  List.iter
    (fun (buf, len) ->
      if !err = None && len > 0 then begin
        let tmp = Bytes.create len in
        let r =
          if pread then ff.Vfs.f_pread tmp ~off:0 ~len ~pos:!pos
          else ff.Vfs.f_read tmp ~off:0 ~len
        in
        match r with
        | Ok 0 -> ()
        | Ok n ->
            Memory.store_bytes m buf (Bytes.sub_string tmp 0 n);
            total := !total + n;
            pos := !pos + n
        | Error e -> err := Some e
      end)
    iovs;
  match !err with
  | Some e when !total = 0 -> errno e
  | _ ->
      store_u32 m nread_ptr !total;
      ok

let do_write ff m iovs_ptr iovs_len nwritten_ptr ~pwrite ~offset =
  let iovs = read_iovs m iovs_ptr iovs_len in
  let total = ref 0 in
  let err = ref None in
  let pos = ref offset in
  List.iter
    (fun (buf, len) ->
      if !err = None && len > 0 then begin
        let data = Memory.load_bytes m buf len in
        let r =
          if pwrite then ff.Vfs.f_pwrite data ~pos:!pos else ff.Vfs.f_write data
        in
        match r with
        | Ok n ->
            total := !total + n;
            pos := !pos + n
        | Error e -> err := Some e
      end)
    iovs;
  match !err with
  | Some e when !total = 0 -> errno e
  | _ ->
      store_u32 m nwritten_ptr !total;
      ok

let sink_write sink m iovs_ptr iovs_len nwritten_ptr =
  let iovs = read_iovs m iovs_ptr iovs_len in
  let total = ref 0 in
  List.iter
    (fun (buf, len) ->
      if len > 0 then begin
        sink (Memory.load_bytes m buf len);
        total := !total + len
      end)
    iovs;
  store_u32 m nwritten_ptr !total;
  ok

let path_of m path_ptr path_len = Memory.load_bytes m path_ptr path_len

let open_flags oflags fdflags =
  let creat = oflags land 1 <> 0 in
  let directory = oflags land 2 <> 0 in
  let excl = oflags land 4 <> 0 in
  let trunc = oflags land 8 <> 0 in
  let append = fdflags land 1 <> 0 in
  (creat, directory, excl, trunc, append)

(* Build all 45 host functions for a context. *)
let functions t =
  let m () = memory t in
  (* Hostcall hardening: no exception from a provider or the hostcall
     body may unwind into (and tear down) the guest. Calls that return
     an errno turn an injected transient fault (site ["wasi.<name>"])
     into EAGAIN and any unexpected host exception into EIO, both
     recorded in the telemetry registry. [Proc_exit], guest traps and
     injected power loss ([Fault.Crashed]) pass through: they ARE the
     control flow. Calls with no result (proc_exit) cannot absorb
     errors and keep their raising behaviour. *)
  let contain name f args =
    let note kind =
      match t.obs with
      | Some o ->
          Twine_obs.Obs.inc o ("wasi.fault." ^ kind);
          Twine_obs.Obs.emit o ~cat:"wasi" ("wasi.fault." ^ name)
      | None -> ()
    in
    match Twine_sim.Fault.consult ("wasi." ^ name) with
    | Some Twine_sim.Fault.Fail ->
        note "injected";
        errno Errno.eagain
    | Some Twine_sim.Fault.Crash ->
        raise (Twine_sim.Fault.Crashed ("wasi." ^ name))
    | _ -> (
        try f args
        with
        | ( Proc_exit _ | Values.Trap _ | Twine_sim.Fault.Crashed _
          | Invalid_argument _ (* host policy (e.g. strict mode), not I/O *)
          | Out_of_memory | Stack_overflow ) as e ->
            raise e
        | _ ->
            note "contained";
            errno Errno.eio)
  in
  let fn name params results f =
    let f = if results = [] then f else contain name f in
    let key = "wasi." ^ name in
    ( name,
      Instance.host_func ~name
        { Types.params; results = (match results with [] -> [] | r -> r) }
        (fun args ->
          (match t.obs with
          | Some o -> (
              Twine_obs.Obs.inc o "wasi.hostcall";
              Twine_obs.Obs.inc o key;
              match Twine_obs.Obs.tracer o with
              | Some tr ->
                  Twine_obs.Trace.instant tr ~cat:"wasi"
                    ~args:[ ("calls", Twine_obs.Obs.value o key) ] key
              | None -> ())
          | None -> ());
          t.providers.on_call name;
          f args) )
  in
  let i = Types.I32 and l = Types.I64 in
  [
    fn "args_sizes_get" [ i; i ] [ i ] (function
      | [ a; b ] -> args_like_sizes (m ()) t.args ~count_ptr:(arg_i32 a) ~size_ptr:(arg_i32 b)
      | _ -> trap "args_sizes_get");
    fn "args_get" [ i; i ] [ i ] (function
      | [ a; b ] -> args_like_get (m ()) t.args ~ptrs_ptr:(arg_i32 a) ~buf_ptr:(arg_i32 b)
      | _ -> trap "args_get");
    fn "environ_sizes_get" [ i; i ] [ i ] (function
      | [ a; b ] ->
          let env = List.map (fun (k, v) -> k ^ "=" ^ v) t.env in
          args_like_sizes (m ()) env ~count_ptr:(arg_i32 a) ~size_ptr:(arg_i32 b)
      | _ -> trap "environ_sizes_get");
    fn "environ_get" [ i; i ] [ i ] (function
      | [ a; b ] ->
          let env = List.map (fun (k, v) -> k ^ "=" ^ v) t.env in
          args_like_get (m ()) env ~ptrs_ptr:(arg_i32 a) ~buf_ptr:(arg_i32 b)
      | _ -> trap "environ_get");
    fn "clock_res_get" [ i; i ] [ i ] (function
      | [ id; ptr ] -> (
          match clock_time t (arg_i32 id) with
          | Some _ ->
              store_u64 (m ()) (arg_i32 ptr) 1L;
              ok
          | None -> errno Errno.einval)
      | _ -> trap "clock_res_get");
    fn "clock_time_get" [ i; l; i ] [ i ] (function
      | [ id; _precision; ptr ] -> (
          match clock_time t (arg_i32 id) with
          | Some ns ->
              store_u64 (m ()) (arg_i32 ptr) ns;
              ok
          | None -> errno Errno.einval)
      | _ -> trap "clock_time_get");
    fn "fd_advise" [ i; l; l; i ] [ i ] (fun _ -> ok);
    fn "fd_allocate" [ i; l; l ] [ i ] (function
      | [ fd; off; len ] ->
          with_file t (arg_i32 fd) right_fd_write (fun ff ->
              let target = Int64.to_int (arg_i64 off) + Int64.to_int (arg_i64 len) in
              if ff.file.f_size () >= target then ok
              else (
                match ff.file.f_set_size target with
                | Ok () -> ok
                | Error e -> errno e))
      | _ -> trap "fd_allocate");
    fn "fd_close" [ i ] [ i ] (function
      | [ fd ] -> (
          let fd = arg_i32 fd in
          match find_fd t fd with
          | Some (Fd_file ff) ->
              ff.file.f_close ();
              Hashtbl.remove t.fds fd;
              ok
          | Some (Fd_dir _) ->
              Hashtbl.remove t.fds fd;
              ok
          | Some _ -> ok
          | None -> errno Errno.ebadf)
      | _ -> trap "fd_close");
    fn "fd_datasync" [ i ] [ i ] (function
      | [ fd ] ->
          with_file t (arg_i32 fd) 0L (fun ff ->
              ff.file.f_sync ();
              ok)
      | _ -> trap "fd_datasync");
    fn "fd_fdstat_get" [ i; i ] [ i ] (function
      | [ fd; buf ] -> (
          let mem = m () and buf = arg_i32 buf in
          let write_fdstat ft flags rights =
            Memory.store8 mem buf (Int32.of_int ft);
            Memory.store16 mem (buf + 2) (Int32.of_int flags);
            store_u64 mem (buf + 8) rights;
            store_u64 mem (buf + 16) rights;
            ok
          in
          match find_fd t (arg_i32 fd) with
          | Some Fd_stdin -> write_fdstat 2 0 right_fd_read
          | Some (Fd_stdout | Fd_stderr) -> write_fdstat 2 1 right_fd_write
          | Some (Fd_dir _) -> write_fdstat 3 0 all_rights
          | Some (Fd_file ff) -> write_fdstat 4 ff.flags ff.rights
          | None -> errno Errno.ebadf)
      | _ -> trap "fd_fdstat_get");
    fn "fd_fdstat_set_flags" [ i; i ] [ i ] (function
      | [ fd; flags ] ->
          with_file t (arg_i32 fd) 0L (fun ff ->
              ff.flags <- arg_i32 flags;
              ok)
      | _ -> trap "fd_fdstat_set_flags");
    fn "fd_fdstat_set_rights" [ i; l; l ] [ i ] (function
      | [ fd; base; _inh ] ->
          with_file t (arg_i32 fd) 0L (fun ff ->
              let requested = arg_i64 base in
              (* rights may only shrink *)
              if Int64.logand requested (Int64.lognot ff.rights) <> 0L then
                errno Errno.enotcapable
              else begin
                ff.rights <- requested;
                ok
              end)
      | _ -> trap "fd_fdstat_set_rights");
    fn "fd_filestat_get" [ i; i ] [ i ] (function
      | [ fd; buf ] -> (
          let mem = m () and buf = arg_i32 buf in
          match find_fd t (arg_i32 fd) with
          | Some (Fd_file ff) ->
              write_filestat mem buf
                { Vfs.st_size = ff.file.f_size (); st_filetype = Vfs.Regular };
              ok
          | Some (Fd_dir _) ->
              write_filestat mem buf { Vfs.st_size = 0; st_filetype = Vfs.Directory };
              ok
          | Some _ ->
              write_filestat mem buf { Vfs.st_size = 0; st_filetype = Vfs.Char_device };
              ok
          | None -> errno Errno.ebadf)
      | _ -> trap "fd_filestat_get");
    fn "fd_filestat_set_size" [ i; l ] [ i ] (function
      | [ fd; size ] ->
          with_file t (arg_i32 fd) right_fd_write (fun ff ->
              match ff.file.f_set_size (Int64.to_int (arg_i64 size)) with
              | Ok () -> ok
              | Error e -> errno e)
      | _ -> trap "fd_filestat_set_size");
    fn "fd_filestat_set_times" [ i; l; l; i ] [ i ] (fun _ -> ok);
    fn "fd_pread" [ i; i; i; l; i ] [ i ] (function
      | [ fd; iovs; iovs_len; off; nread ] ->
          with_file t (arg_i32 fd) right_fd_read (fun ff ->
              do_read ff.file (m ()) (arg_i32 iovs) (arg_i32 iovs_len) (arg_i32 nread)
                ~pread:true ~offset:(Int64.to_int (arg_i64 off)))
      | _ -> trap "fd_pread");
    fn "fd_prestat_get" [ i; i ] [ i ] (function
      | [ fd; buf ] -> (
          match find_fd t (arg_i32 fd) with
          | Some (Fd_dir d) ->
              let mem = m () and buf = arg_i32 buf in
              Memory.store8 mem buf 0l;
              store_u32 mem (buf + 4) (String.length d.preopen_name);
              ok
          | Some _ | None -> errno Errno.ebadf)
      | _ -> trap "fd_prestat_get");
    fn "fd_prestat_dir_name" [ i; i; i ] [ i ] (function
      | [ fd; path; path_len ] -> (
          match find_fd t (arg_i32 fd) with
          | Some (Fd_dir d) ->
              if String.length d.preopen_name > arg_i32 path_len then
                errno Errno.erange
              else begin
                Memory.store_bytes (m ()) (arg_i32 path) d.preopen_name;
                ok
              end
          | Some _ | None -> errno Errno.ebadf)
      | _ -> trap "fd_prestat_dir_name");
    fn "fd_pwrite" [ i; i; i; l; i ] [ i ] (function
      | [ fd; iovs; iovs_len; off; nw ] ->
          with_file t (arg_i32 fd) right_fd_write (fun ff ->
              do_write ff.file (m ()) (arg_i32 iovs) (arg_i32 iovs_len) (arg_i32 nw)
                ~pwrite:true ~offset:(Int64.to_int (arg_i64 off)))
      | _ -> trap "fd_pwrite");
    fn "fd_read" [ i; i; i; i ] [ i ] (function
      | [ fd; iovs; iovs_len; nread ] -> (
          match find_fd t (arg_i32 fd) with
          | Some Fd_stdin ->
              store_u32 (m ()) (arg_i32 nread) 0;
              ok
          | _ ->
              with_file t (arg_i32 fd) right_fd_read (fun ff ->
                  do_read ff.file (m ()) (arg_i32 iovs) (arg_i32 iovs_len)
                    (arg_i32 nread) ~pread:false ~offset:0))
      | _ -> trap "fd_read");
    fn "fd_readdir" [ i; i; i; l; i ] [ i ] (function
      | [ fd; buf; buf_len; cookie; bufused ] ->
          with_dir t (arg_i32 fd) (fun d ->
              match d.dir.d_list "" with
              | Error e -> errno e
              | Ok entries ->
                  let mem = m () in
                  let buf = arg_i32 buf and buf_len = arg_i32 buf_len in
                  let cookie = Int64.to_int (arg_i64 cookie) in
                  let pos = ref 0 in
                  let idx = ref 0 in
                  List.iter
                    (fun (name, ft) ->
                      incr idx;
                      if !idx > cookie && !pos + 24 + String.length name <= buf_len
                      then begin
                        store_u64 mem (buf + !pos) (Int64.of_int !idx);
                        store_u64 mem (buf + !pos + 8) (Int64.of_int !idx);
                        store_u32 mem (buf + !pos + 16) (String.length name);
                        Memory.store8 mem (buf + !pos + 20)
                          (Int32.of_int (filetype_byte ft));
                        Memory.store_bytes mem (buf + !pos + 24) name;
                        pos := !pos + 24 + String.length name
                      end)
                    entries;
                  store_u32 mem (arg_i32 bufused) !pos;
                  ok)
      | _ -> trap "fd_readdir");
    fn "fd_renumber" [ i; i ] [ i ] (function
      | [ from; to_ ] -> (
          let from = arg_i32 from and to_ = arg_i32 to_ in
          match find_fd t from with
          | None -> errno Errno.ebadf
          | Some entry ->
              (match find_fd t to_ with
              | Some (Fd_file old) -> old.file.f_close ()
              | _ -> ());
              Hashtbl.replace t.fds to_ entry;
              Hashtbl.remove t.fds from;
              ok)
      | _ -> trap "fd_renumber");
    fn "fd_seek" [ i; l; i; i ] [ i ] (function
      | [ fd; offset; whence; newpos ] ->
          with_file t (arg_i32 fd) right_fd_seek (fun ff ->
              let whence =
                match arg_i32 whence with
                | 0 -> `Set
                | 1 -> `Cur
                | 2 -> `End
                | _ -> `Set
              in
              match ff.file.f_seek ~offset:(Int64.to_int (arg_i64 offset)) ~whence with
              | Ok p ->
                  store_u64 (m ()) (arg_i32 newpos) (Int64.of_int p);
                  ok
              | Error e -> errno e)
      | _ -> trap "fd_seek");
    fn "fd_sync" [ i ] [ i ] (function
      | [ fd ] ->
          with_file t (arg_i32 fd) 0L (fun ff ->
              ff.file.f_sync ();
              ok)
      | _ -> trap "fd_sync");
    fn "fd_tell" [ i; i ] [ i ] (function
      | [ fd; ptr ] ->
          with_file t (arg_i32 fd) 0L (fun ff ->
              store_u64 (m ()) (arg_i32 ptr) (Int64.of_int (ff.file.f_tell ()));
              ok)
      | _ -> trap "fd_tell");
    fn "fd_write" [ i; i; i; i ] [ i ] (function
      | [ fd; iovs; iovs_len; nw ] -> (
          match find_fd t (arg_i32 fd) with
          | Some Fd_stdout ->
              sink_write t.providers.stdout (m ()) (arg_i32 iovs) (arg_i32 iovs_len)
                (arg_i32 nw)
          | Some Fd_stderr ->
              sink_write t.providers.stderr (m ()) (arg_i32 iovs) (arg_i32 iovs_len)
                (arg_i32 nw)
          | _ ->
              with_file t (arg_i32 fd) right_fd_write (fun ff ->
                  do_write ff.file (m ()) (arg_i32 iovs) (arg_i32 iovs_len)
                    (arg_i32 nw) ~pwrite:false ~offset:0))
      | _ -> trap "fd_write");
    fn "path_create_directory" [ i; i; i ] [ i ] (function
      | [ fd; path; len ] ->
          with_dir t (arg_i32 fd) (fun d ->
              match d.dir.d_create_dir (path_of (m ()) (arg_i32 path) (arg_i32 len)) with
              | Ok () -> ok
              | Error e -> errno e)
      | _ -> trap "path_create_directory");
    fn "path_filestat_get" [ i; i; i; i; i ] [ i ] (function
      | [ fd; _flags; path; len; buf ] ->
          with_dir t (arg_i32 fd) (fun d ->
              match d.dir.d_stat (path_of (m ()) (arg_i32 path) (arg_i32 len)) with
              | Ok st ->
                  write_filestat (m ()) (arg_i32 buf) st;
                  ok
              | Error e -> errno e)
      | _ -> trap "path_filestat_get");
    fn "path_filestat_set_times" [ i; i; i; i; l; l; i ] [ i ] (fun _ -> ok);
    fn "path_link" [ i; i; i; i; i; i; i ] [ i ] (fun _ -> errno Errno.enosys);
    fn "path_open" [ i; i; i; i; i; l; l; i; i ] [ i ] (function
      | [ dirfd; _dirflags; path; path_len; oflags; rights_base; _rights_inh;
          fdflags; opened ] ->
          with_dir t (arg_i32 dirfd) (fun d ->
              let path = path_of (m ()) (arg_i32 path) (arg_i32 path_len) in
              let creat, directory, excl, trunc, append =
                open_flags (arg_i32 oflags) (arg_i32 fdflags)
              in
              if directory then (
                match d.dir.d_stat path with
                | Ok { Vfs.st_filetype = Vfs.Directory; _ } ->
                    (* open the subtree as a new capability *)
                    errno Errno.enotsup
                | Ok _ -> errno Errno.enotdir
                | Error e -> errno e)
              else
                match d.dir.d_open path ~create:creat ~trunc ~excl ~append with
                | Error e -> errno e
                | Ok file ->
                    let fd = t.next_fd in
                    t.next_fd <- t.next_fd + 1;
                    Hashtbl.replace t.fds fd
                      (Fd_file
                         {
                           file;
                           rights = Int64.logand (arg_i64 rights_base) all_rights;
                           flags = arg_i32 fdflags;
                         });
                    store_u32 (m ()) (arg_i32 opened) fd;
                    ok)
      | _ -> trap "path_open");
    fn "path_readlink" [ i; i; i; i; i; i ] [ i ] (fun _ -> errno Errno.enosys);
    fn "path_remove_directory" [ i; i; i ] [ i ] (function
      | [ fd; path; len ] ->
          with_dir t (arg_i32 fd) (fun d ->
              match d.dir.d_remove_dir (path_of (m ()) (arg_i32 path) (arg_i32 len)) with
              | Ok () -> ok
              | Error e -> errno e)
      | _ -> trap "path_remove_directory");
    fn "path_rename" [ i; i; i; i; i; i ] [ i ] (function
      | [ fd; old_p; old_len; new_fd; new_p; new_len ] ->
          if arg_i32 fd <> arg_i32 new_fd then errno Errno.enotsup
          else
            with_dir t (arg_i32 fd) (fun d ->
                match
                  d.dir.d_rename
                    (path_of (m ()) (arg_i32 old_p) (arg_i32 old_len))
                    (path_of (m ()) (arg_i32 new_p) (arg_i32 new_len))
                with
                | Ok () -> ok
                | Error e -> errno e)
      | _ -> trap "path_rename");
    fn "path_symlink" [ i; i; i; i; i ] [ i ] (fun _ -> errno Errno.enosys);
    fn "path_unlink_file" [ i; i; i ] [ i ] (function
      | [ fd; path; len ] ->
          with_dir t (arg_i32 fd) (fun d ->
              match d.dir.d_unlink (path_of (m ()) (arg_i32 path) (arg_i32 len)) with
              | Ok () -> ok
              | Error e -> errno e)
      | _ -> trap "path_unlink_file");
    fn "poll_oneoff" [ i; i; i; i ] [ i ] (function
      | [ in_ptr; out_ptr; nsubs; nevents ] ->
          (* only clock subscriptions complete (immediately) *)
          let mem = m () in
          let in_ptr = arg_i32 in_ptr and out_ptr = arg_i32 out_ptr in
          let nsubs = arg_i32 nsubs in
          let written = ref 0 in
          for s = 0 to nsubs - 1 do
            let sub = in_ptr + (s * 48) in
            let userdata = Memory.load64 mem sub in
            let tag = Int32.to_int (Memory.load8_u mem (sub + 8)) in
            if tag = 0 then begin
              (* clock: report completion *)
              let ev = out_ptr + (!written * 32) in
              store_u64 mem ev userdata;
              Memory.store16 mem (ev + 8) 0l;  (* errno success *)
              Memory.store8 mem (ev + 10) 0l;  (* type clock *)
              incr written
            end
          done;
          if !written = 0 && nsubs > 0 then errno Errno.enotsup
          else begin
            store_u32 mem (arg_i32 nevents) !written;
            ok
          end
      | _ -> trap "poll_oneoff");
    fn "proc_exit" [ i ] [] (function
      | [ code ] ->
          t.exit_code <- Some (arg_i32 code);
          raise (Proc_exit (arg_i32 code))
      | _ -> trap "proc_exit");
    fn "proc_raise" [ i ] [ i ] (fun _ -> errno Errno.enosys);
    fn "random_get" [ i; i ] [ i ] (function
      | [ buf; len ] ->
          Memory.store_bytes (m ()) (arg_i32 buf) (t.providers.random (arg_i32 len));
          ok
      | _ -> trap "random_get");
    fn "sched_yield" [] [ i ] (fun _ -> ok);
    fn "sock_recv" [ i; i; i; i; i; i ] [ i ] (fun _ -> errno Errno.enotsup);
    fn "sock_send" [ i; i; i; i; i ] [ i ] (fun _ -> errno Errno.enotsup);
    fn "sock_shutdown" [ i; i ] [ i ] (fun _ -> errno Errno.enotsup);
  ]

let import_module_name = "wasi_snapshot_preview1"

let imports t : Instance.imports =
  List.map (fun (name, f) -> (import_module_name, name, Instance.Extern_func f))
    (functions t)

let function_count t = List.length (functions t)

(* Instantiate a WASI command module and run its _start, returning the
   exit code (0 when _start returns normally). *)
let run_command t module_ =
  let inst = Interp.instantiate ~imports:(imports t) module_ in
  bind_memory t inst;
  match Instance.export_func inst "_start" with
  | None -> invalid_arg "Wasi.run_command: module has no _start"
  | Some _ -> (
      try
        ignore (Interp.invoke inst "_start" []);
        0
      with Proc_exit code -> code)
