(* Quickstart: run an unmodified WASI application inside a (simulated)
   SGX enclave with TWINE.

     dune exec examples/quickstart.exe

   The application is ordinary WebAssembly using the standard WASI
   interface — nothing in it knows about enclaves. TWINE supplies the
   runtime, the WASI host, and the protection. *)

open Twine
open Twine_sgx

let app =
  {|(module
      (import "wasi_snapshot_preview1" "fd_write"
        (func $fd_write (param i32 i32 i32 i32) (result i32)))
      (import "wasi_snapshot_preview1" "random_get"
        (func $random_get (param i32 i32) (result i32)))
      (memory (export "memory") 1)
      (data (i32.const 100) "TWINE quickstart: 8 trusted random bytes: ")
      (data (i32.const 160) "0123456789abcdef")
      (func $hex_digit (param $n i32) (result i32)
        (i32.load8_u (i32.add (i32.const 160) (local.get $n))))
      (func (export "_start")
        (local $i i32)
        ;; fetch trusted randomness from the enclave
        (drop (call $random_get (i32.const 200) (i32.const 8)))
        ;; hex-encode it after the banner text
        (local.set $i (i32.const 0))
        (block $done
          (loop $next
            (br_if $done (i32.ge_s (local.get $i) (i32.const 8)))
            (i32.store8
              (i32.add (i32.const 142) (i32.mul (local.get $i) (i32.const 2)))
              (call $hex_digit
                (i32.shr_u (i32.load8_u (i32.add (i32.const 200) (local.get $i)))
                           (i32.const 4))))
            (i32.store8
              (i32.add (i32.const 143) (i32.mul (local.get $i) (i32.const 2)))
              (call $hex_digit
                (i32.and (i32.load8_u (i32.add (i32.const 200) (local.get $i)))
                         (i32.const 15))))
            (local.set $i (i32.add (local.get $i) (i32.const 1)))
            (br $next)))
        (i32.store8 (i32.const 158) (i32.const 10)) ;; newline
        ;; print banner + hex + newline
        (i32.store (i32.const 8) (i32.const 100))
        (i32.store (i32.const 12) (i32.const 59))
        (drop (call $fd_write (i32.const 1) (i32.const 8) (i32.const 1) (i32.const 20)))))|}

let () =
  (* 1. a machine with SGX support (virtual clock + EPC + fused keys) *)
  let machine = Machine.create ~seed:"quickstart" () in

  (* 2. the TWINE runtime: launches an enclave whose measurement covers
     the runtime code, with a protected file system behind WASI *)
  let rt = Runtime.create machine in
  Printf.printf "enclave measurement: %s...\n"
    (String.sub (Twine_crypto.Hexcodec.encode (Enclave.measurement (Runtime.enclave rt))) 0 16);

  (* 3. deploy the unmodified WASI application *)
  Runtime.deploy rt (Twine_wasm.Wat.parse app);

  (* 4. one ECALL runs it; WASI random_get was served by the enclave *)
  let r = Runtime.run rt in
  print_string r.Runtime.stdout;
  Printf.printf "exit code: %d\n" r.Runtime.exit_code;
  (* each one-way crossing is one booked event of its ledger account *)
  let ledger = Machine.ledger machine in
  Printf.printf "enclave boundary crossings: %d\n"
    (Twine_obs.Ledger.events ledger "sgx.transition.ecall"
    + Twine_obs.Ledger.events ledger "sgx.transition.ocall");
  Printf.printf "simulated time elapsed: %.3f ms\n"
    (float_of_int (Machine.now_ns machine) /. 1e6)
