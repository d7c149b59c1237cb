(* CRC-32 (IEEE 802.3, the zlib polynomial), table-driven, slicing by 8:
   eight bytes per step through eight 256-entry tables, then one byte
   per step for the tail.  Used by the v2 trace format to checksum each
   event block and the trailing index, so bit rot surfaces as a typed
   [Corrupt] naming the damaged block instead of silently wrong replay
   counts. *)

(* One flat array of eight tables: [table.(n)] for n < 256 is the
   classic bytewise table T0, and T(k) at [256 * k] advances T(k-1)'s
   entry by one more zero byte, so T(k).(b) is the CRC contribution of a
   byte b that has k more bytes after it in the current 8-byte word. *)
let table =
  let t = Array.make 2048 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for n = 256 to 2047 do
    let c = t.(n - 256) in
    t.(n) <- t.(c land 0xff) lxor (c lsr 8)
  done;
  t

(* running CRCs are carried pre-inverted (the usual ~crc register form);
   [start] and [finish] do the inversions once per checksum *)
let start = 0xffffffff
let finish crc = crc lxor 0xffffffff

let[@inline] byte crc b =
  Array.unsafe_get table ((crc lxor b) land 0xff) lxor (crc lsr 8)

(* one 8-byte step: the low word is folded into the register, the high
   word is not; each byte indexes the table for its distance from the
   word's end *)
let[@inline] step8 crc b0 b1 b2 b3 b4 b5 b6 b7 =
  let t = table in
  let lo = crc lxor (b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)) in
  Array.unsafe_get t (1792 + (lo land 0xff))
  lxor Array.unsafe_get t (1536 + ((lo lsr 8) land 0xff))
  lxor Array.unsafe_get t (1280 + ((lo lsr 16) land 0xff))
  lxor Array.unsafe_get t (1024 + (lo lsr 24))
  lxor Array.unsafe_get t (768 + b4)
  lxor Array.unsafe_get t (512 + b5)
  lxor Array.unsafe_get t (256 + b6)
  lxor Array.unsafe_get t b7

let[@inline] sget s i = Char.code (String.unsafe_get s i)

let check_range what len pos n =
  if pos < 0 || n < 0 || pos > len - n then invalid_arg ("Crc32." ^ what)

let string_sub crc s pos len =
  check_range "string_sub" (String.length s) pos len;
  let c = ref crc in
  let i = ref pos in
  let stop8 = pos + len - 8 in
  while !i <= stop8 do
    let k = !i in
    c := step8 !c (sget s k) (sget s (k + 1)) (sget s (k + 2)) (sget s (k + 3))
           (sget s (k + 4)) (sget s (k + 5)) (sget s (k + 6)) (sget s (k + 7));
    i := k + 8
  done;
  for k = !i to pos + len - 1 do
    c := byte !c (sget s k)
  done;
  !c

let of_string s = finish (string_sub start s 0 (String.length s))
