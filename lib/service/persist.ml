module J = Mo_obs.Jsonb

(* 2: classify payloads may carry "orders_truncated", and version-1
   files can hold answers computed under the old silent cycle cap *)
let version = 2

let entries_of_json = function
  | J.Obj fields -> (
      match List.assoc_opt "version" fields with
      | Some (J.Int v) when v = version -> (
          match List.assoc_opt "entries" fields with
          | Some (J.List items) ->
              let rec go acc = function
                | [] -> Ok (List.rev acc)
                | J.List [ J.String k; payload ] :: rest ->
                    go ((k, J.to_string payload) :: acc) rest
                | _ -> Error "malformed snapshot entry (want [key, payload])"
              in
              go [] items
          | _ -> Error "snapshot missing list field \"entries\"")
      | Some (J.Int v) ->
          Error (Printf.sprintf "unsupported snapshot version %d" v)
      | _ -> Error "snapshot missing int field \"version\"")
  | _ -> Error "snapshot is not an object"

(* write tmp, fsync, rename: the published file is always a complete
   snapshot — either the old one or the new one, never a torn mix *)
let save ~path entries =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     (* the bytes of the tree {"version":2,"entries":[[key,payload],...]}
        with each payload's text spliced in as it is *)
     output_string oc "{\"version\":";
     output_string oc (string_of_int version);
     output_string oc ",\"entries\":[";
     List.iteri
       (fun i (k, text) ->
         output_string oc (if i = 0 then "[" else ",[");
         output_string oc (J.to_string (J.String k));
         output_char oc ',';
         output_string oc text;
         output_char oc ']')
       entries;
     output_string oc "]}\n";
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let load ~path =
  if not (Sys.file_exists path) then Ok None
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error e -> Error e
    | contents -> (
        match J.of_string contents with
        | Error e -> Error ("bad snapshot JSON: " ^ e)
        | Ok json -> Result.map Option.some (entries_of_json json))
