module type S = sig
  val name : string
  val serves : Query.quantity -> sampled:bool -> bool
  val max_n : int
  val supports : Query.t -> bool
  val eval_columns : Batch.t -> unit
  val eval_batch : Plan.t array -> Answer.t array
end
