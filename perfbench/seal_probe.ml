(* Host cost of the node-sealing primitive a protected file system uses
   (AES-GCM for the stock variant, AES-CCM for the optimised one), on one
   4 KiB node with a 16-byte key: the median of 25 seals, per KiB. *)

open Common

let node = String.init 4096 (fun i -> Char.chr (i land 0xff))
let key = String.init 16 (fun i -> Char.chr (17 * i land 0xff))
let iv = String.make 12 '\001'

let us_per_kib variant =
  let seal =
    match variant with
    | Twine_ipfs.Protected_fs.Stock ->
        let k = Twine_crypto.Gcm.of_raw key in
        fun () -> Twine_crypto.Gcm.encrypt k ~iv ~aad:"node" node
    | Twine_ipfs.Protected_fs.Optimized ->
        let k = Twine_crypto.Aes.expand key in
        fun () -> Twine_crypto.Ccm.encrypt k ~nonce:iv ~aad:"node" node
  in
  let t =
    Array.init 25 (fun _ ->
        let t0 = now () in
        ignore (Sys.opaque_identity (seal ()));
        now () -. t0)
  in
  median t *. 1e6 /. 4.
