module type S = sig
  val name : string
  val supports : Query.t -> bool
  val eval : Query.t -> Answer.t
  val eval_batch : Plan.t array -> Answer.t array
end
